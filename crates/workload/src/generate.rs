//! Relation generators.

use crate::spec::PaperParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vtjoin_core::{AttrDef, AttrType, Interval, Relation, Schema, Tuple, Value};
use vtjoin_storage::{HeapFile, SharedDisk};

/// How join-key values are distributed over tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over `[0, keys)` — the paper's objects.
    Uniform,
    /// Zipf with the given exponent (skew ablations).
    Zipf(f64),
}

/// How tuple start chronons are distributed over the lifespan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeDistribution {
    /// Uniform over the lifespan — the paper's placement.
    Uniform,
    /// Concentrated in `n` equal-width bursts covering 10% of the
    /// lifespan (exercises non-uniform partition sizing).
    Clustered(u32),
}

/// Duration of the non-long-lived tuples.
///
/// The paper's experiments use exactly one chronon; real valid-time data
/// has varied lifespans, which these alternatives model for the wider
/// test and ablation surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationDistribution {
    /// Exactly one chronon — the paper's §4.2/§4.3 construction.
    Instant,
    /// Uniform over `[1, max]` chronons.
    UniformUpTo(i64),
    /// Geometric with the given continue-probability (mean `1/(1−p)`),
    /// capped at half the lifespan so "short" stays short.
    Geometric(f64),
}

/// Full generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Total number of tuples.
    pub tuples: u64,
    /// How many of them are long-lived (start uniform in the first half of
    /// the lifespan, duration = lifespan / 2 — the §4.3 construction).
    pub long_lived: u64,
    /// Relation lifespan `[0, lifespan)` in chronons.
    pub lifespan: i64,
    /// Distinct join-key values (the paper's real-world objects).
    pub keys: u64,
    /// Key skew.
    pub key_dist: KeyDistribution,
    /// Start-time distribution of the non-long-lived tuples.
    pub time_dist: TimeDistribution,
    /// Duration distribution of the non-long-lived tuples.
    pub duration_dist: DurationDistribution,
    /// Padding bytes per tuple (0 = no padding attribute payload).
    pub pad_bytes: usize,
    /// RNG seed; every generator is fully deterministic.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Paper-style config at the given scale: one-chronon tuples, no
    /// long-lived, 128-byte records, uniform keys.
    pub fn paper(params: &PaperParams, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            tuples: params.relation_tuples,
            long_lived: 0,
            lifespan: params.lifespan,
            keys: params.objects,
            key_dist: KeyDistribution::Uniform,
            time_dist: TimeDistribution::Uniform,
            duration_dist: DurationDistribution::Instant,
            // Record = 16 (interval) + 1 (arity) + 9 (int) + 3 (bytes
            // header) + pad; padded so tuples_per_page records fill a page.
            pad_bytes: params.tuple_bytes - 30,
            seed,
        }
    }

    /// Generator for a declarative [`crate::spec::WorkloadSpec`]: paper-style
    /// one-chronon tuples plus the spec's long-lived count, with the key
    /// distribution decoded from the spec's fixed-point Zipf exponent.
    pub fn from_spec(spec: &crate::spec::WorkloadSpec) -> GeneratorConfig {
        GeneratorConfig {
            tuples: spec.tuples,
            long_lived: spec.long_lived.min(spec.tuples),
            lifespan: spec.lifespan,
            keys: spec.keys,
            key_dist: spec.key_distribution(),
            time_dist: TimeDistribution::Uniform,
            duration_dist: DurationDistribution::Instant,
            pad_bytes: 0,
            seed: spec.seed,
        }
    }

    /// Builder: set the number of long-lived tuples.
    #[must_use]
    pub fn long_lived(mut self, n: u64) -> GeneratorConfig {
        self.long_lived = n.min(self.tuples);
        self
    }

    /// Builder: set the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> GeneratorConfig {
        self.seed = seed;
        self
    }
}

/// Schema of a generated outer relation: shared key plus its own payload.
pub fn outer_schema(pad: usize) -> Arc<Schema> {
    Schema::new(vec![
        AttrDef::new("key", AttrType::Int),
        AttrDef::new("rpad", AttrType::Bytes(pad)),
    ])
    .expect("static schema")
    .into_shared()
}

/// Schema of a generated inner relation.
pub fn inner_schema(pad: usize) -> Arc<Schema> {
    Schema::new(vec![
        AttrDef::new("key", AttrType::Int),
        AttrDef::new("spad", AttrType::Bytes(pad)),
    ])
    .expect("static schema")
    .into_shared()
}

fn draw_key(rng: &mut StdRng, cfg: &GeneratorConfig, zipf: Option<&ZipfWeights>) -> i64 {
    match zipf {
        None => rng.gen_range(0..cfg.keys) as i64,
        Some(w) => w.draw(rng),
    }
}

fn draw_duration(rng: &mut StdRng, cfg: &GeneratorConfig) -> i64 {
    let cap = (cfg.lifespan / 2).max(1);
    match cfg.duration_dist {
        DurationDistribution::Instant => 1,
        DurationDistribution::UniformUpTo(max) => rng.gen_range(1..=max.clamp(1, cap)),
        DurationDistribution::Geometric(p) => {
            let p = p.clamp(0.0, 0.999);
            let mut d = 1i64;
            while d < cap && rng.gen_bool(p) {
                d += 1;
            }
            d
        }
    }
}

fn draw_start(rng: &mut StdRng, cfg: &GeneratorConfig) -> i64 {
    match cfg.time_dist {
        TimeDistribution::Uniform => rng.gen_range(0..cfg.lifespan),
        TimeDistribution::Clustered(n) => {
            let n = i64::from(n.max(1));
            let cluster = rng.gen_range(0..n);
            let width = (cfg.lifespan / (10 * n)).max(1);
            let base = cfg.lifespan * cluster / n;
            (base + rng.gen_range(0..width)).min(cfg.lifespan - 1)
        }
    }
}

/// Inverse-CDF Zipf sampler over `[0, n)` (simple and deterministic; fine
/// for workload skew, not for statistics): the weights `1/k^θ` and their
/// sum, computed once per [`generate`] call. A draw scales a uniform
/// variate by the sum and subtracts the weights in key order until it
/// reaches zero, with no `powf` per draw.
struct ZipfWeights {
    weights: Vec<f64>,
    sum: f64,
}

impl ZipfWeights {
    fn new(n: u64, theta: f64) -> ZipfWeights {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        // Summed in key order, as the weights are subtracted.
        let sum = weights.iter().sum();
        ZipfWeights { weights, sum }
    }

    fn draw(&self, rng: &mut StdRng) -> i64 {
        let mut u = rng.gen_range(0.0..1.0) * self.sum;
        for (k, w) in self.weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return k as i64;
            }
        }
        self.weights.len() as i64 - 1
    }
}

/// Generates a relation per `cfg` over the given schema (outer or inner).
///
/// The §4.3 construction: `cfg.long_lived` tuples get a start uniform over
/// the first half of the lifespan and a duration of exactly half the
/// lifespan; the remaining tuples are one chronon long. Tuple order is
/// shuffled so long-lived tuples spread over the relation's pages.
pub fn generate(schema: Arc<Schema>, cfg: &GeneratorConfig) -> Relation {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tuples = Vec::with_capacity(cfg.tuples as usize);
    let half = (cfg.lifespan / 2).max(1);
    let zipf = match cfg.key_dist {
        KeyDistribution::Uniform => None,
        KeyDistribution::Zipf(theta) => Some(ZipfWeights::new(cfg.keys, theta)),
    };
    for i in 0..cfg.tuples {
        let key = draw_key(&mut rng, cfg, zipf.as_ref());
        let valid = if i < cfg.long_lived {
            let start = rng.gen_range(0..half);
            Interval::from_raw(start, start + half).expect("ordered")
        } else {
            let start = draw_start(&mut rng, cfg);
            let end = start + draw_duration(&mut rng, cfg) - 1;
            Interval::from_raw(start, end).expect("ordered")
        };
        let values = vec![
            Value::Int(key),
            Value::Bytes(vec![0u8; cfg.pad_bytes].into_boxed_slice()),
        ];
        tuples.push(Tuple::new(values, valid));
    }
    tuples.shuffle(&mut rng);
    Relation::from_parts_unchecked(schema, tuples)
}

/// §4.2 database: every tuple exactly one chronon long, uniform placement.
pub fn uniform_snapshot(schema: Arc<Schema>, cfg: &GeneratorConfig) -> Relation {
    let cfg = GeneratorConfig {
        long_lived: 0,
        ..cfg.clone()
    };
    generate(schema, &cfg)
}

/// §4.3 database: `long_lived` long-lived tuples mixed into one-chronon
/// tuples.
pub fn long_lived_mix(schema: Arc<Schema>, cfg: &GeneratorConfig, long_lived: u64) -> Relation {
    generate(schema, &cfg.clone().long_lived(long_lived))
}

/// Generates and bulk-loads in one step.
pub fn generate_heap(
    disk: &SharedDisk,
    schema: Arc<Schema>,
    cfg: &GeneratorConfig,
) -> vtjoin_storage::Result<HeapFile> {
    HeapFile::bulk_load(disk, &generate(schema, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> GeneratorConfig {
        GeneratorConfig {
            tuples: 2000,
            long_lived: 0,
            lifespan: 10_000,
            keys: 200,
            key_dist: KeyDistribution::Uniform,
            time_dist: TimeDistribution::Uniform,
            duration_dist: DurationDistribution::Instant,
            pad_bytes: 0,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(outer_schema(0), &base_cfg());
        let b = generate(outer_schema(0), &base_cfg());
        let c = generate(outer_schema(0), &base_cfg().seed(43));
        assert_eq!(a.tuples(), b.tuples());
        assert_ne!(a.tuples(), c.tuples());
    }

    #[test]
    fn uniform_snapshot_is_one_chronon_everywhere() {
        let r = uniform_snapshot(outer_schema(0), &base_cfg());
        assert_eq!(r.len(), 2000);
        for t in r.iter() {
            assert_eq!(t.valid().duration(), 1);
            let c = t.valid().start().value();
            assert!((0..10_000).contains(&c));
        }
    }

    #[test]
    fn long_lived_mix_matches_the_papers_construction() {
        let r = long_lived_mix(outer_schema(0), &base_cfg(), 500);
        let (mut long, mut short) = (0, 0);
        for t in r.iter() {
            if t.valid().duration() > 1 {
                long += 1;
                let s = t.valid().start().value();
                assert!((0..5000).contains(&s), "start in first half, got {s}");
                assert_eq!(
                    t.valid().duration(),
                    5001,
                    "duration = half lifespan + 1 chronon"
                );
            } else {
                short += 1;
            }
        }
        assert_eq!(long, 500);
        assert_eq!(short, 1500);
    }

    #[test]
    fn long_lived_tuples_are_shuffled_across_the_relation() {
        let r = long_lived_mix(outer_schema(0), &base_cfg(), 500);
        // Not all long-lived tuples in the first quarter of the tuple list.
        let first_quarter = r.tuples()[..500]
            .iter()
            .filter(|t| t.valid().duration() > 1)
            .count();
        assert!(first_quarter < 400, "shuffle left {first_quarter} in front");
        assert!(first_quarter > 25, "shuffle removed too many from front");
    }

    #[test]
    fn keys_cover_the_domain() {
        let r = generate(outer_schema(0), &base_cfg());
        let mut seen = std::collections::HashSet::new();
        for t in r.iter() {
            let k = t.value(0).as_int().unwrap();
            assert!((0..200).contains(&k));
            seen.insert(k);
        }
        assert!(
            seen.len() > 150,
            "uniform keys should cover most of the domain"
        );
    }

    /// The sampler before its weights were kept: the harmonic sum and
    /// every weight recomputed on each draw.
    fn zipf_per_draw(rng: &mut StdRng, n: u64, theta: f64) -> i64 {
        let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).sum();
        let mut u = rng.gen_range(0.0..1.0) * h;
        for k in 1..=n {
            u -= 1.0 / (k as f64).powf(theta);
            if u <= 0.0 {
                return (k - 1) as i64;
            }
        }
        (n - 1) as i64
    }

    #[test]
    fn kept_zipf_weights_draw_exactly_what_the_per_draw_formula_drew() {
        for theta in [0.8, 1.0, 1.2] {
            for (seed, n) in [(1u64, 1u64), (7, 2), (42, 200), (2024, 4096)] {
                let weights = ZipfWeights::new(n, theta);
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for i in 0..2_000 {
                    assert_eq!(
                        weights.draw(&mut a),
                        zipf_per_draw(&mut b, n, theta),
                        "theta {theta}, seed {seed}, n {n}, draw {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_skews_towards_small_keys() {
        let cfg = GeneratorConfig {
            key_dist: KeyDistribution::Zipf(1.2),
            ..base_cfg()
        };
        let r = generate(outer_schema(0), &cfg);
        let zero = r.iter().filter(|t| t.value(0).as_int() == Some(0)).count();
        let tail = r
            .iter()
            .filter(|t| t.value(0).as_int().unwrap() >= 100)
            .count();
        assert!(
            zero * 4 > tail,
            "zipf head {zero} should dominate tail {tail}"
        );
    }

    #[test]
    fn from_spec_honours_the_zipf_knob() {
        use crate::spec::WorkloadSpec;
        let spec = WorkloadSpec {
            name: "skew".into(),
            tuples: 2000,
            long_lived: 100,
            lifespan: 10_000,
            keys: 200,
            zipf_x100: 120,
            seed: 42,
        };
        let cfg = GeneratorConfig::from_spec(&spec);
        assert_eq!(cfg.key_dist, KeyDistribution::Zipf(1.2));
        assert_eq!(cfg.long_lived, 100);
        let r = generate(outer_schema(0), &cfg);
        let zero = r.iter().filter(|t| t.value(0).as_int() == Some(0)).count();
        assert!(
            zero > 2000 / 200,
            "zipf head should exceed the uniform share, got {zero}"
        );
    }

    #[test]
    fn clustered_starts_land_in_bursts() {
        let cfg = GeneratorConfig {
            time_dist: TimeDistribution::Clustered(4),
            ..base_cfg()
        };
        let r = generate(outer_schema(0), &cfg);
        // Burst windows are the first 10% of each quarter.
        for t in r.iter() {
            let c = t.valid().start().value();
            let in_burst = (0..4).any(|q| {
                let base = 10_000 * q / 4;
                (base..base + 250).contains(&c)
            });
            assert!(in_burst, "start {c} outside every burst");
        }
    }

    #[test]
    fn duration_distributions() {
        let uni = GeneratorConfig {
            duration_dist: DurationDistribution::UniformUpTo(50),
            ..base_cfg()
        };
        let r = generate(outer_schema(0), &uni);
        assert!(r.iter().all(|t| (1..=50).contains(&(t.lifespan() as i64))));
        assert!(
            r.iter().any(|t| t.lifespan() > 1),
            "not everything is an instant"
        );

        let geo = GeneratorConfig {
            duration_dist: DurationDistribution::Geometric(0.5),
            ..base_cfg()
        };
        let g = generate(outer_schema(0), &geo);
        let mean: f64 = g.iter().map(|t| t.lifespan() as f64).sum::<f64>() / g.len() as f64;
        assert!(
            (1.5..3.0).contains(&mean),
            "geometric(0.5) mean ≈ 2, got {mean}"
        );
        // Determinism across distributions too.
        let g2 = generate(outer_schema(0), &geo);
        assert_eq!(g.tuples(), g2.tuples());
    }

    #[test]
    fn paper_config_packs_32_tuples_per_page() {
        let params = PaperParams::SMALL;
        let cfg = GeneratorConfig {
            tuples: 320,
            ..GeneratorConfig::paper(&params, 1)
        };
        let disk = SharedDisk::new(params.page_size);
        let heap = generate_heap(&disk, outer_schema(cfg.pad_bytes), &cfg).unwrap();
        assert_eq!(heap.tuples(), 320);
        assert_eq!(heap.pages(), 10, "exactly 32 tuples per 4 KB page");
    }

    #[test]
    fn schemas_share_only_the_key() {
        let r = outer_schema(8);
        let s = inner_schema(8);
        let (lr, ls) = r.join_attributes(&s).unwrap();
        assert_eq!(lr, vec![0]);
        assert_eq!(ls, vec![0]);
    }
}
