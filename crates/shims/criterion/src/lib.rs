//! Vendored, dependency-free stand-in for the subset of `criterion` 0.5
//! this workspace uses: [`Criterion`] with `bench_function` /
//! `benchmark_group`, [`BenchmarkGroup`] with `sample_size` /
//! `bench_with_input` / `finish`, [`BenchmarkId`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Each benchmark runs a short warm-up plus a fixed number of timed
//! samples and prints the minimum and median wall-clock per iteration —
//! no statistical analysis, outlier detection, or HTML reports. As in
//! real criterion, the first non-flag command-line argument filters the
//! benchmarks by substring (`cargo bench --bench micro -- page_checksum`).

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity function, as in real criterion.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver handed to every `criterion_group!` target.
pub struct Criterion {
    default_samples: usize,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_samples: 10,
            filter: None,
        }
    }
}

impl Criterion {
    /// Runs only the benchmarks whose id contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Takes the filter from the command line: its first argument that
    /// is not a flag (cargo passes `--bench` itself).
    pub fn configure_from_args(self) -> Self {
        match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Runs a standalone benchmark under `id`.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(id, self.default_samples, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            name: name.to_string(),
            samples: self.default_samples,
            parent: self,
        }
    }
}

/// A named collection of benchmarks sharing a sample count.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        self.parent.run_one(&id, self.samples, &mut f);
        self
    }

    /// Runs a benchmark parameterised by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id.into());
        self.parent.run_one(&id, self.samples, &mut |b| f(b, input));
        self
    }

    /// Ends the group. A no-op here; kept for API compatibility.
    pub fn finish(self) {}
}

/// Identifies one benchmark as a `function/parameter` pair.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter display value.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            text: s.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, once per sample after one warm-up call.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.times.push(start.elapsed());
        }
    }
}

impl Criterion {
    /// Runs `f` and prints its summary line, unless the filter skips `id`.
    fn run_one<F>(&self, id: &str, samples: usize, f: &mut F)
    where
        F: FnMut(&mut Bencher),
    {
        if self
            .filter
            .as_ref()
            .is_some_and(|s| !id.contains(s.as_str()))
        {
            return;
        }
        let mut b = Bencher {
            samples,
            times: Vec::with_capacity(samples),
        };
        f(&mut b);
        println!("{}", summary(id, &mut b.times));
    }
}

/// One benchmark's line: the fastest and the median sample (the upper
/// median for an even count).
fn summary(id: &str, times: &mut [Duration]) -> String {
    times.sort_unstable();
    match times.first() {
        None => format!("bench {id}: no iterations recorded"),
        Some(min) => format!(
            "bench {id}: min {min:?}, median {:?} over {} iters",
            times[times.len() / 2],
            times.len()
        ),
    }
}

/// Declares a benchmark group function, as in real criterion. The
/// configuration-callback form (`config = ...`) is not supported.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_counts() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        // one warm-up + default_samples timed calls
        assert_eq!(calls, 11);
    }

    #[test]
    fn group_honours_sample_size() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        let mut calls = 0u64;
        group.bench_with_input(BenchmarkId::new("f", 7), &7u32, |b, &x| {
            b.iter(|| {
                calls += 1;
                black_box(x)
            })
        });
        group.finish();
        assert_eq!(calls, 4);
    }

    #[test]
    fn filter_skips_benchmarks_whose_id_lacks_it() {
        let mut c = Criterion::default().with_filter("page_checksum");
        let mut calls = 0u64;
        c.bench_function("page_pack_4k", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 0);
        c.bench_function("page_checksum_4k", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 11);
        let mut group = c.benchmark_group("codec");
        group.sample_size(2);
        group.bench_function("decode", |b| b.iter(|| calls += 1));
        group.bench_with_input(BenchmarkId::new("page_checksum", 1024), &(), |b, _| {
            b.iter(|| calls += 1)
        });
        group.finish();
        assert_eq!(calls, 14);
    }

    #[test]
    fn summary_prints_min_and_median() {
        let ms = Duration::from_millis;
        let mut times = [ms(5), ms(1), ms(9), ms(3)];
        assert_eq!(
            summary("g/f", &mut times),
            "bench g/f: min 1ms, median 5ms over 4 iters"
        );
        let mut times = [ms(7), ms(2), ms(4)];
        assert_eq!(
            summary("f", &mut times),
            "bench f: min 2ms, median 4ms over 3 iters"
        );
        assert_eq!(summary("f", &mut []), "bench f: no iterations recorded");
    }
}
