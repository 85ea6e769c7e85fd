//! Deterministic, seeded fault injection for the simulated disk.
//!
//! Real devices fail: reads time out, writes land torn. The simulator
//! models three fault classes, each drawn from one seeded generator so a
//! given `(workload, seed)` pair replays bit-identically:
//!
//! * **transient read faults** — the read returns an error; the data is
//!   intact and a retry may succeed,
//! * **transient write faults** — the write returns an error before any
//!   byte lands; the previous page image (if any) is untouched,
//! * **torn writes** — the write *appears* to succeed but the stored
//!   image is corrupted: an 8-byte run at a drawn offset is XORed with
//!   `0xA5`. Torn pages are persistent: no retry helps, only the page
//!   checksum (see [`crate::codec::page_checksum`]) catches them at read
//!   time. The checksum detects any change confined to one aligned
//!   4-byte word; a run touches at most three consecutive words, each in
//!   its own checksum lane, and the tests check every offset on full
//!   1 KiB, 4 KiB and 1021-byte pages.
//!
//! Transient faults are absorbed by the disk's bounded
//! retry-with-backoff policy ([`RetryPolicy`]); the backoff is an
//! accounting quantity (the simulator never sleeps). All outcomes are
//! tallied in [`FaultStats`] so the observability layer can report how
//! hard a run had to fight the hardware.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Fault probabilities in parts per mille (‰), plus the generator seed.
///
/// A rate of `50` means 5% of the matching operations fault. All-zero
/// rates make the injector a no-op (but still deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Transient read-failure probability, ‰.
    pub read_fail_permille: u32,
    /// Transient write-failure probability, ‰.
    pub write_fail_permille: u32,
    /// Torn-write (persistent corruption) probability, ‰.
    pub torn_write_permille: u32,
}

impl FaultConfig {
    /// A config injecting every fault class at the same rate.
    pub fn uniform(seed: u64, permille: u32) -> FaultConfig {
        FaultConfig {
            seed,
            read_fail_permille: permille,
            write_fail_permille: permille,
            torn_write_permille: permille,
        }
    }

    /// Whether every rate is zero (the injector cannot fire).
    pub fn is_noop(&self) -> bool {
        self.read_fail_permille == 0
            && self.write_fail_permille == 0
            && self.torn_write_permille == 0
    }
}

/// Bounded retry policy for transient injected faults.
///
/// `max_attempts` counts the initial try: `max_attempts == 1` disables
/// retrying entirely. Backoff between attempts is exponential
/// (1, 2, 4, … units) and is recorded in
/// [`FaultStats::backoff_steps`] rather than slept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// No retrying: every transient fault surfaces immediately.
    pub const NONE: RetryPolicy = RetryPolicy { max_attempts: 1 };
}

impl Default for RetryPolicy {
    /// One initial try plus up to three retries.
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4 }
    }
}

/// Monotone counters describing injected faults and their resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct FaultStats {
    /// Transient read faults injected (counting every faulted attempt).
    pub injected_read_faults: u64,
    /// Transient write faults injected (counting every faulted attempt).
    pub injected_write_faults: u64,
    /// Writes whose stored image was silently corrupted.
    pub torn_writes: u64,
    /// Page-checksum verification failures observed at decode time.
    pub checksum_failures: u64,
    /// Retry attempts performed after a transient fault.
    pub retries: u64,
    /// Operations that faulted at least once but ultimately succeeded.
    pub recovered: u64,
    /// Operations that faulted on every attempt and surfaced an error.
    pub exhausted: u64,
    /// Exponential-backoff units accrued across all retries.
    pub backoff_steps: u64,
}

impl FaultStats {
    /// All-zero statistics.
    pub const ZERO: FaultStats = FaultStats {
        injected_read_faults: 0,
        injected_write_faults: 0,
        torn_writes: 0,
        checksum_failures: 0,
        retries: 0,
        recovered: 0,
        exhausted: 0,
        backoff_steps: 0,
    };

    /// Total transient faults injected, reads plus writes.
    pub fn injected(&self) -> u64 {
        self.injected_read_faults + self.injected_write_faults
    }

    /// Whether any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != FaultStats::ZERO
    }
}

impl Add for FaultStats {
    type Output = FaultStats;
    fn add(self, o: FaultStats) -> FaultStats {
        FaultStats {
            injected_read_faults: self.injected_read_faults + o.injected_read_faults,
            injected_write_faults: self.injected_write_faults + o.injected_write_faults,
            torn_writes: self.torn_writes + o.torn_writes,
            checksum_failures: self.checksum_failures + o.checksum_failures,
            retries: self.retries + o.retries,
            recovered: self.recovered + o.recovered,
            exhausted: self.exhausted + o.exhausted,
            backoff_steps: self.backoff_steps + o.backoff_steps,
        }
    }
}

impl AddAssign for FaultStats {
    fn add_assign(&mut self, o: FaultStats) {
        *self = *self + o;
    }
}

impl Sub for FaultStats {
    type Output = FaultStats;
    /// Saturating per-field difference — used to compute per-run deltas
    /// from the disk's monotone counters.
    fn sub(self, o: FaultStats) -> FaultStats {
        FaultStats {
            injected_read_faults: self
                .injected_read_faults
                .saturating_sub(o.injected_read_faults),
            injected_write_faults: self
                .injected_write_faults
                .saturating_sub(o.injected_write_faults),
            torn_writes: self.torn_writes.saturating_sub(o.torn_writes),
            checksum_failures: self.checksum_failures.saturating_sub(o.checksum_failures),
            retries: self.retries.saturating_sub(o.retries),
            recovered: self.recovered.saturating_sub(o.recovered),
            exhausted: self.exhausted.saturating_sub(o.exhausted),
            backoff_steps: self.backoff_steps.saturating_sub(o.backoff_steps),
        }
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults {}r/{}w, torn {}, checksum {}, retries {} ({} recovered, {} exhausted)",
            self.injected_read_faults,
            self.injected_write_faults,
            self.torn_writes,
            self.checksum_failures,
            self.retries,
            self.recovered,
            self.exhausted
        )
    }
}

/// The seeded fault stream. splitmix64: tiny, well distributed, and —
/// crucially for an offline workspace — dependency-free.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    cfg: FaultConfig,
    state: u64,
}

impl FaultInjector {
    pub(crate) fn new(cfg: FaultConfig) -> FaultInjector {
        // Offset the seed so seed 0 still produces a scrambled stream.
        FaultInjector {
            cfg,
            state: cfg.seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    pub(crate) fn config(&self) -> FaultConfig {
        self.cfg
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One Bernoulli draw at `permille`/1000. Always consumes one draw so
    /// the stream stays aligned across differently-configured runs.
    fn roll(&mut self, permille: u32) -> bool {
        let draw = self.next_u64() % 1000;
        permille > 0 && draw < u64::from(permille)
    }

    pub(crate) fn roll_read_fail(&mut self) -> bool {
        let p = self.cfg.read_fail_permille;
        self.roll(p)
    }

    pub(crate) fn roll_write_fail(&mut self) -> bool {
        let p = self.cfg.write_fail_permille;
        self.roll(p)
    }

    pub(crate) fn roll_torn_write(&mut self) -> bool {
        let p = self.cfg.torn_write_permille;
        self.roll(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = FaultInjector::new(FaultConfig::uniform(7, 100));
        let mut b = FaultInjector::new(FaultConfig::uniform(7, 100));
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), xs.len(), "no short cycles");
        let mut c = FaultInjector::new(FaultConfig::uniform(8, 100));
        assert_ne!(c.next_u64(), xs[0], "different seed, different stream");
    }

    #[test]
    fn roll_rate_is_plausible() {
        // 100‰ over 10 000 draws: expect ~1000 hits; accept a wide band.
        let mut inj = FaultInjector::new(FaultConfig::uniform(42, 100));
        let hits = (0..10_000).filter(|_| inj.roll(100)).count();
        assert!((700..1300).contains(&hits), "hits = {hits}");
        // Zero rate never fires.
        let mut inj = FaultInjector::new(FaultConfig::uniform(42, 0));
        assert!((0..10_000).all(|_| !inj.roll(0)));
    }

    #[test]
    fn stats_arithmetic_and_display() {
        let a = FaultStats {
            injected_read_faults: 2,
            injected_write_faults: 1,
            torn_writes: 1,
            checksum_failures: 1,
            retries: 3,
            recovered: 2,
            exhausted: 1,
            backoff_steps: 7,
        };
        assert_eq!(a.injected(), 3);
        assert!(a.any());
        assert!(!FaultStats::ZERO.any());
        let sum = a + a;
        assert_eq!(sum.retries, 6);
        assert_eq!((sum - a), a);
        assert_eq!((a - sum).retries, 0, "saturating");
        let mut acc = FaultStats::ZERO;
        acc += a;
        assert_eq!(acc, a);
        let s = a.to_string();
        assert!(s.contains("2r/1w") && s.contains("recovered"));
    }

    #[test]
    fn uniform_and_noop() {
        let c = FaultConfig::uniform(3, 50);
        assert_eq!(c.read_fail_permille, 50);
        assert_eq!(c.torn_write_permille, 50);
        assert!(!c.is_noop());
        assert!(FaultConfig::uniform(3, 0).is_noop());
    }
}
