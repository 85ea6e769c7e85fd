//! Seeded input generation, local to the benchmark.
//!
//! The benchmark owns its generator so that inputs depend only on the
//! `--seed` argument and so that skewed keys are cheap to draw:
//! `vtjoin_workload::generate`'s Zipf sampler recomputes the harmonic sum
//! on every draw (O(keys) `powf` calls per tuple), which made 2 × 100k
//! tuples over 4,096 keys take about 22 s. [`Zipf`] computes the CDF once
//! and draws by binary search.

use std::sync::Arc;
use vtjoin_core::{Interval, Relation, Schema, Tuple, Value};

/// SplitMix64: a small, fast, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The two random streams a relation is drawn from: its join keys, which
/// follow the workload seed, and its temporal layout (start chronons and
/// their order), which is fixed per relation. Only keys then differ from
/// seed to seed; every page holds the same stretch of time, so the
/// partition join's I/O is the same for every seed.
#[derive(Debug, Clone)]
pub struct Streams {
    keys: Rng,
    times: Rng,
}

/// Base seed of the fixed temporal layouts. It is far from any small
/// workload seed: had a relation's layout stream been seeded with the same
/// value as its key stream, both would shuffle alike and tie each key to a
/// stretch of time (with seed 1 that made skew-stream's join about 40%
/// cheaper than with any other seed).
const LAYOUT_SEED: u64 = 0xD1B5_4A32_D192_ED03;

impl Streams {
    /// The streams of relation number `relation` of a workload: keys drawn
    /// from `seed`, the temporal layout from a fixed seed of the
    /// relation's own.
    pub fn new(seed: u64, relation: u64) -> Streams {
        Streams {
            keys: Rng::new(seed),
            times: Rng::new(LAYOUT_SEED ^ relation),
        }
    }
}

/// Zipf(θ) over `[0, keys)` with its CDF computed once.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution `P(k) ∝ 1 / (k + 1)^θ` over `keys` values.
    pub fn new(keys: u64, theta: f64) -> Zipf {
        assert!(keys > 0, "Zipf needs at least one key");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=keys)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The key at quantile `u ∈ [0, 1)`, by binary search on the CDF.
    pub fn quantile(&self, u: f64) -> u64 {
        let k = self.cdf.partition_point(|&c| c <= u);
        k.min(self.cdf.len() - 1) as u64
    }
}

/// How join keys are drawn.
#[derive(Debug, Clone)]
pub enum Keys {
    /// Uniform over `[0, n)`.
    Uniform(u64),
    /// Zipf-skewed.
    Zipf(Zipf),
}

impl Keys {
    /// The key at quantile `u ∈ [0, 1)` of the distribution.
    fn at(&self, u: f64) -> i64 {
        match self {
            Keys::Uniform(n) => ((u * *n as f64) as u64).min(n - 1) as i64,
            Keys::Zipf(z) => z.quantile(u) as i64,
        }
    }
}

/// `n` values by stratified sampling — one draw from each of `n` equal
/// slices of `[0, 1)`, mapped through the quantile function `at` — in
/// shuffled order.
///
/// How many tuples carry each key then barely depends on the seed (and
/// the temporal layout not at all, see [`Streams`]), so the join's result
/// size, the planner's partitions and the grid's shape — and with them
/// every timing — stay nearly the same from seed to seed. Under plain
/// draws the long-lived tuples that happen to land on the hottest Zipf
/// keys swing the result size by tens of percent.
fn stratified(n: u64, rng: &mut Rng, at: impl Fn(f64) -> i64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n)
        .map(|i| at((i as f64 + rng.unit()) / n as f64))
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// One relation's shape: the paper's §4.3 construction of one-chronon
/// tuples placed uniformly over the lifespan, plus `long_lived` tuples
/// that start in the first half and last half the lifespan.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Total tuples.
    pub tuples: u64,
    /// How many of them are long-lived.
    pub long_lived: u64,
    /// Lifespan `[0, lifespan)` in chronons.
    pub lifespan: i64,
    /// Key distribution.
    pub keys: Keys,
    /// Padding bytes per tuple.
    pub pad: usize,
}

impl Shape {
    /// `n` tuples, long-lived or one chronon long, with stratified keys
    /// and stratified start chronons.
    fn tuples(&self, n: u64, long_lived: bool, rng: &mut Streams) -> Vec<Tuple> {
        let half = (self.lifespan / 2).max(1);
        let span = if long_lived { half } else { self.lifespan };
        let keys = stratified(n, &mut rng.keys, |u| self.keys.at(u));
        let starts = stratified(n, &mut rng.times, |u| {
            ((u * span as f64) as i64).min(span - 1)
        });
        keys.into_iter()
            .zip(starts)
            .map(|(key, start)| {
                let end = if long_lived { start + half } else { start };
                let valid = Interval::from_raw(start, end).expect("ordered");
                let pad = Value::Bytes(vec![0u8; self.pad].into_boxed_slice());
                Tuple::new(vec![Value::Int(key), pad], valid)
            })
            .collect()
    }
}

/// Generates a relation of the given shape over `schema` (key, padding).
/// The long-lived tuples are spread evenly over the relation, and so over
/// its heap pages.
pub fn relation(schema: Arc<Schema>, shape: &Shape, rng: &mut Streams) -> Relation {
    let (n, l) = (shape.tuples, shape.long_lived.min(shape.tuples));
    let mut long = shape.tuples(l, true, rng).into_iter();
    let mut short = shape.tuples(n - l, false, rng).into_iter();
    let tuples = (0..n)
        .map(|i| {
            let from = if (i + 1) * l / n > i * l / n {
                &mut long
            } else {
                &mut short
            };
            from.next().expect("one tuple per slot")
        })
        .collect();
    Relation::from_parts_unchecked(schema, tuples)
}

/// `n` further one-chronon tuples of the given shape (append batches).
pub fn short_tuples(shape: &Shape, n: u64, rng: &mut Streams) -> Vec<Tuple> {
    shape.tuples(n, false, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let xs: Vec<u64> = (0..100).map(|_| a.below(1000)).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.below(1000)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x < 1000));
    }

    #[test]
    fn layout_stream_is_never_the_key_stream() {
        for seed in 0..64 {
            for relation in 1..=3 {
                let mut st = Streams::new(seed, relation);
                assert_ne!(st.keys.next_u64(), st.times.next_u64(), "{seed}");
            }
        }
    }

    #[test]
    fn zipf_cdf_is_normalized_and_skewed() {
        let z = Zipf::new(4096, 1.0);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(z.cdf.windows(2).all(|w| w[0] <= w[1]));
        let mut rng = Rng::new(1);
        let n = 100_000;
        let zeros = (0..n).filter(|_| z.quantile(rng.unit()) == 0).count();
        // P(0) = 1 / H(4096) ≈ 0.1127.
        let share = zeros as f64 / n as f64;
        assert!((share - 0.1127).abs() < 0.01, "share {share}");
    }

    #[test]
    fn shape_is_respected() {
        let shape = Shape {
            tuples: 1000,
            long_lived: 100,
            lifespan: 10_000,
            keys: Keys::Uniform(64),
            pad: 3,
        };
        let schema = vtjoin_workload::generate::outer_schema(3);
        let r = relation(Arc::clone(&schema), &shape, &mut Streams::new(3, 1));
        assert_eq!(r.len(), 1000);
        let long = r.iter().filter(|t| t.valid().duration() == 5001).count();
        assert_eq!(long, 100);
        assert!(r.iter().all(|t| t.valid().end().value() < 15_000));
        // Another seed, same layout: the keys change, the valid times of
        // every tuple position do not.
        let other = relation(schema, &shape, &mut Streams::new(4, 1));
        let times = |r: &Relation| r.iter().map(|t| t.valid()).collect::<Vec<_>>();
        assert_eq!(times(&r), times(&other));
        assert_ne!(r.tuples(), other.tuples());
    }

    #[test]
    fn stratified_keys_fix_the_per_key_counts() {
        // 64 uniform keys over 6,400 tuples: exactly 100 tuples per key
        // whatever the seed.
        let uniform = Keys::Uniform(64);
        let keys = stratified(6_400, &mut Rng::new(9), |u| uniform.at(u));
        let mut counts = [0u32; 64];
        for k in keys {
            counts[k as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
        // Zipf: the hottest key's count is within one of n · P(0).
        let z = Zipf::new(4096, 1.0);
        let want = 10_000.0 * z.cdf[0];
        let z = Keys::Zipf(z);
        for seed in 0..4 {
            let hot = stratified(10_000, &mut Rng::new(seed), |u| z.at(u));
            let zeros = hot.iter().filter(|&&k| k == 0).count() as f64;
            assert!((zeros - want).abs() <= 1.0, "{zeros} vs {want}");
        }
    }
}
