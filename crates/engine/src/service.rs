//! A concurrent multi-query join service: a priority-aware admission
//! pipeline, a statistics-fingerprinted plan cache, LRU table residency,
//! and streaming execution.
//!
//! The paper's planner pays a real sampling cost `C_sample` on **every**
//! join (`determinePartIntervals`, Figure 10). A service that answers the
//! same join over slowly-changing relations should not: the partition
//! boundaries the Kolmogorov sample produced remain *correct* forever —
//! they partition all of valid time, so every tuple still lands in some
//! partition — and remain *well-balanced* for as long as the relations'
//! statistics stay within the plan's own `errorSize` slack. [`JoinService`]
//! exploits exactly that, and hardens the serve path around it:
//!
//! * a **plan cache** keyed by table pair, canonical predicate name, and
//!   grid choice, validated by a [`StatsFingerprint`] of each side
//!   (cardinality, zone-map time hull, long-lived count, catalog version,
//!   sampling seed). A hit reuses the cached partition boundaries and
//!   skips sampling entirely — zero planning I/O. When a fingerprint
//!   drifts past the entry's tolerance (the `errorSize` page budget
//!   converted to tuples), the entry is invalidated and the join replans;
//! * a **fair, priority-aware admission pipeline** over a shared
//!   [`vtjoin_storage::PagePool`]: each request reserves its real page
//!   footprint (both relations *plus* the configured join buffer) under a
//!   [`Priority`] class before running. Admission is ticket-ordered
//!   FIFO-within-priority — the pool's fast path may not barge past a
//!   compatible queued waiter, so a stream of small interactive joins can
//!   no longer starve a queued batch join. Requests that can never fit
//!   are rejected immediately ([`Rejected::TooLarge`]); once the bounded
//!   wait queue is full, further interactive/batch requests are rejected
//!   ([`Rejected::Saturated`]) rather than queueing without bound;
//! * **deadline-aware load shedding**: a request may carry a deadline —
//!   if the observed queue wait (EWMA) already exceeds it the request is
//!   shed before queueing, and if the deadline expires while queued the
//!   ticket is withdrawn; both surface as
//!   [`Rejected::DeadlineExceeded`]. Background requests never queue at
//!   all: when they cannot be admitted immediately they are shed with
//!   [`Rejected::RetryAfter`], whose hint is derived from the observed
//!   queue-wait and execution-cost EWMAs;
//! * **LRU table residency**: hot relations stay decoded in memory across
//!   requests under a dedicated page budget, so a plan-cache hit on a hot
//!   pair performs *zero* heap I/O end to end. Beside them, under the
//!   same budget, the service keeps the columnar encoding of each
//!   resident pair an inner join ran over, keyed by both tables' catalog
//!   versions: later `submit`/`submit_streamed` calls on the pair skip
//!   the encode pass until either version moves, and the encoding goes
//!   when residency drops or evicts either table;
//! * **streaming execution** ([`JoinService::submit_streamed`]): results
//!   are delivered incrementally as [`vtjoin_join::kernel::OutputBatch`]
//!   wire units in deterministic order — the concatenation of the batches
//!   is byte-identical to the materialized result.
//!
//! Every outcome is accounted in a [`ServiceSection`] (obs schema v8,
//! including per-class counters, shed counters, stream counters, and a
//! queue-wait histogram) and the whole run renders as one
//! [`ExecutionReport`] with algorithm `"service"`.

use crate::database::{Database, DbError, TableStats};
use crate::operator::{operator_join, OperatorCounters};
use crate::parallel::{execute, stream, StreamSummary};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};
use vtjoin_core::{Interval, JoinPredicate, Operator, Relation, Tuple};
use vtjoin_join::columnar::{EncodedPair, Layout};
use vtjoin_join::common::JoinSpec;
use vtjoin_join::kernel::KernelChoice;
use vtjoin_join::partition::planner::{determine_part_intervals, plan_error_size};
use vtjoin_join::partition::{plan_grid, GridChoice, GridPlan};
use vtjoin_join::{JoinConfig, JoinError};
use vtjoin_obs::{
    ConfigSection, Counter, ExecutionReport, IoSection, PhaseSection, ResultSection, ServiceSection,
};
use vtjoin_storage::{
    HeapFile, IoStats, PagePool, PageReservation, ReserveError, ReserveRequest, PRIORITY_CASUAL,
    PRIORITY_NORMAL, PRIORITY_URGENT,
};

/// Queue-wait histogram bucket upper bounds, in microseconds; the last
/// bucket is unbounded. Mirrored in `docs/OBSERVABILITY.md`.
pub const WAIT_HIST_BOUNDS_MICROS: [u64; 7] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// Number of queue-wait histogram buckets.
pub const WAIT_HIST_BUCKETS: usize = WAIT_HIST_BOUNDS_MICROS.len() + 1;

fn wait_bucket(micros: u64) -> usize {
    WAIT_HIST_BOUNDS_MICROS
        .iter()
        .position(|&b| micros < b)
        .unwrap_or(WAIT_HIST_BOUNDS_MICROS.len())
}

/// Admission class of one request. Within a class, admission is strictly
/// arrival-ordered; a higher class may overtake queued lower-class
/// requests, never a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive requests: may overtake queued batch/background
    /// waiters.
    Interactive,
    /// The default class: queues FIFO among peers.
    #[default]
    Batch,
    /// Best-effort requests: **never queue** — a background request that
    /// cannot be admitted immediately is shed with
    /// [`Rejected::RetryAfter`] instead of occupying a queue slot.
    Background,
}

impl Priority {
    /// The storage-layer admission class this priority maps to.
    fn storage_class(self) -> u8 {
        match self {
            Priority::Interactive => PRIORITY_URGENT,
            Priority::Batch => PRIORITY_NORMAL,
            Priority::Background => PRIORITY_CASUAL,
        }
    }

    /// Canonical lower-case name (the serve protocol's `priority=` value).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Priority {
    type Err = String;
    fn from_str(s: &str) -> Result<Priority, String> {
        match s {
            "interactive" => Ok(Priority::Interactive),
            "batch" => Ok(Priority::Batch),
            "background" => Ok(Priority::Background),
            other => Err(format!(
                "unknown priority '{other}' (expected interactive, batch, or background)"
            )),
        }
    }
}

/// Per-request admission options ([`JoinService::submit_opts`] /
/// [`JoinService::submit_streamed`]). The default is a batch-priority
/// inner-join request with no deadline, no page-budget cap, and the
/// service's configured grid policy.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Admission class.
    pub priority: Priority,
    /// Which member of the operator family to evaluate (the serve
    /// protocol's `op=` token). Non-inner operators run the
    /// dangling-tracking executor ([`crate::operator::operator_join`])
    /// over the same cached partition plan; they are not streamable.
    pub op: Operator,
    /// Total time the request may spend *queued for admission*. Expiry
    /// sheds the request with [`Rejected::DeadlineExceeded`]; a request
    /// whose deadline is already smaller than the observed queue wait is
    /// shed before taking a queue slot at all.
    pub deadline: Option<Duration>,
    /// Per-request page-budget cap: a request whose real footprint
    /// (outer + inner + join buffer) exceeds this budget is rejected as
    /// [`Rejected::TooLarge`] against the budget, before touching the
    /// shared pool.
    pub page_budget: Option<u64>,
    /// Grid policy override for this one request (`None` = the service's
    /// configured [`ServiceConfig::grid`]).
    pub grid: Option<GridChoice>,
}

/// Why the admission controller refused a request. Every outcome is
/// immediate or deadline-bounded — a request the service cannot serve is
/// never left blocked indefinitely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The request's page reservation exceeds the whole pool (or the
    /// request's own [`SubmitOptions::page_budget`]).
    TooLarge {
        /// Pages the request needs (outer + inner + join buffer).
        pages: u64,
        /// The budget that refused it: the pool capacity, or the
        /// per-request page budget if that was the binding constraint.
        pool_pages: u64,
    },
    /// The bounded admission queue was full (interactive/batch only;
    /// background requests shed as [`Rejected::RetryAfter`] instead).
    Saturated {
        /// Requests already waiting.
        waiting: u64,
        /// The configured queue bound.
        max_waiting: u64,
    },
    /// The request's deadline expired while queued for admission — or was
    /// already smaller than the observed queue wait, in which case it was
    /// shed immediately (`waited_micros == 0`).
    DeadlineExceeded {
        /// Time actually spent queued before the request was withdrawn.
        waited_micros: u64,
    },
    /// Load shedding of a background request that could not be admitted
    /// immediately: retry after the hinted delay, derived from the
    /// observed queue-wait and execution-cost EWMAs.
    RetryAfter {
        /// Suggested client back-off, in milliseconds (≥ 1).
        millis: u64,
    },
}

/// Errors surfaced by [`JoinService::submit`]. Every variant is a typed
/// per-request failure: a bad request can never take the service down.
#[derive(Debug)]
pub enum ServiceError {
    /// The admission controller refused the request.
    Rejected(Rejected),
    /// Catalog failure (unknown table, storage trouble during lookup).
    Db(DbError),
    /// The join itself failed with a typed error.
    Join(JoinError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Rejected(Rejected::TooLarge { pages, pool_pages }) => {
                write!(
                    f,
                    "rejected: request needs {pages} pages, budget holds {pool_pages}"
                )
            }
            ServiceError::Rejected(Rejected::Saturated {
                waiting,
                max_waiting,
            }) => {
                write!(
                    f,
                    "rejected: admission queue full ({waiting}/{max_waiting} waiting)"
                )
            }
            ServiceError::Rejected(Rejected::DeadlineExceeded { waited_micros }) => {
                write!(
                    f,
                    "rejected: deadline expired after {waited_micros} µs queued"
                )
            }
            ServiceError::Rejected(Rejected::RetryAfter { millis }) => {
                write!(f, "shed: retry after {millis} ms")
            }
            ServiceError::Db(e) => write!(f, "{e}"),
            ServiceError::Join(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// How a request was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Pool pages were available immediately.
    Immediate,
    /// The request blocked in the admission queue before running.
    Queued,
}

/// How the request's partition plan was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOutcome {
    /// Cached boundaries were reused; Kolmogorov sampling was skipped
    /// entirely (zero planning I/O).
    CacheHit,
    /// No cached entry existed; `determinePartIntervals` ran fresh.
    Miss,
    /// A cached entry existed but its fingerprints drifted past the
    /// `errorSize` tolerance; the entry was dropped and the join replanned.
    Invalidated,
    /// The request's predicate compiles to a sequence/mixed template,
    /// which time partitioning cannot serve: no partition plan was
    /// computed, cached, or consulted — the merge fallback ran instead.
    Unpartitioned,
}

/// One completed join request.
#[derive(Debug)]
pub struct JoinResponse {
    /// The join result, deterministic in partition order.
    pub result: Relation,
    /// How the partition plan was obtained.
    pub plan: PlanOutcome,
    /// How the request was admitted.
    pub admission: Admission,
    /// Number of time partitions the executor ran.
    pub partitions: u64,
    /// Key-axis bucket count of the executed grid (1 for time-only plans,
    /// 0 for merge-fallback runs that used no grid at all).
    pub key_buckets: u64,
    /// Pool pages this request reserved while running (outer + inner +
    /// join buffer).
    pub reserved_pages: u64,
    /// Wall-clock the request spent queued for admission, in microseconds
    /// (0 for immediate admissions).
    pub wait_micros: u64,
    /// Dangling/stitch/timeline counters from the operator executor —
    /// `Some` exactly when the request asked for a non-inner
    /// [`Operator`].
    pub operator: Option<OperatorCounters>,
}

/// One completed **streamed** join request: everything the sink was not
/// already handed. The result itself went out incrementally; concatenated,
/// the batches are byte-identical to the materialized
/// [`JoinResponse::result`] of the same request.
#[derive(Debug)]
pub struct StreamedResponse {
    /// How the partition plan was obtained.
    pub plan: PlanOutcome,
    /// How the request was admitted.
    pub admission: Admission,
    /// Number of time partitions the executor ran.
    pub partitions: u64,
    /// Key-axis bucket count of the executed grid (0 for merge-fallback
    /// runs).
    pub key_buckets: u64,
    /// Pool pages this request reserved while running.
    pub reserved_pages: u64,
    /// Wall-clock the request spent queued for admission, in microseconds.
    pub wait_micros: u64,
    /// Non-empty batches delivered to the sink.
    pub batches: u64,
    /// Total tuples across all delivered batches.
    pub tuples: u64,
}

/// The statistics fingerprint of one relation at plan time — everything
/// the plan cache compares to decide whether cached partition boundaries
/// still fit. All fields come from the catalog ([`Database::table_stats`])
/// at zero I/O cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsFingerprint {
    /// Tuple count.
    pub tuples: u64,
    /// Heap pages.
    pub pages: u64,
    /// Zone-map time hull (`None` for an empty relation).
    pub time_hull: Option<Interval>,
    /// Long-lived tuple count (the §3.3 cache-estimate driver).
    pub long_lived: u64,
    /// Catalog rewrite stamp.
    pub version: u64,
    /// Sampling seed the plan was computed under.
    pub seed: u64,
}

impl StatsFingerprint {
    /// Fingerprints a catalog snapshot under the given sampling seed.
    pub fn from_stats(s: TableStats, seed: u64) -> StatsFingerprint {
        StatsFingerprint {
            tuples: s.tuples,
            pages: s.pages,
            time_hull: s.time_hull,
            long_lived: s.long_lived,
            version: s.version,
            seed,
        }
    }
}

/// Plan-cache key: `(outer, inner, predicate, grid policy, operator)`.
/// The operator is part of the key so a plan computed for one member of
/// the operator family is never handed to — or poisoned by — another.
type PlanKey = (String, String, String, String, String);

/// One cached plan: the boundaries, the grid shape, and the fingerprints
/// plus drift tolerances that gate reuse. The chosen `partSize` itself is
/// not stored — its slack is baked into the per-side tolerances below.
#[derive(Debug, Clone)]
struct CacheEntry {
    outer: StatsFingerprint,
    inner: StatsFingerprint,
    intervals: Vec<Interval>,
    /// Key-axis bucket count the grid planner chose for these boundaries.
    key_buckets: u64,
    /// Per-side drift budgets in tuples: the plan's `errorSize` page slack
    /// converted at each side's tuples-per-page density at cache time.
    outer_tol_tuples: u64,
    inner_tol_tuples: u64,
}

fn tuples_per_page_ceil(fp: &StatsFingerprint) -> u64 {
    fp.tuples.div_ceil(fp.pages.max(1)).max(1)
}

fn side_within_tolerance(cached: &StatsFingerprint, now: &StatsFingerprint, tol: u64) -> bool {
    // Identical catalog version ⇒ identical statistics: nothing to check.
    if cached.version == now.version {
        return true;
    }
    // The time hull is deliberately NOT an invalidation trigger: cached
    // intervals partition all of valid time, so hull growth (appends at
    // the end of the time-line, §3.1) lands in the tail partition and only
    // affects balance — which the tuple-count drift bound already covers.
    cached.tuples.abs_diff(now.tuples) <= tol && cached.long_lived.abs_diff(now.long_lived) <= tol
}

impl CacheEntry {
    fn still_valid(&self, outer_now: &StatsFingerprint, inner_now: &StatsFingerprint) -> bool {
        self.outer.seed == outer_now.seed
            && self.inner.seed == inner_now.seed
            && side_within_tolerance(&self.outer, outer_now, self.outer_tol_tuples)
            && side_within_tolerance(&self.inner, inner_now, self.inner_tol_tuples)
    }
}

/// Holds a single-flight planning claim for one cache key; dropping it —
/// on success or on any error path — releases the claim and wakes the
/// requests parked behind the planner.
struct PlanClaim<'a> {
    svc: &'a JoinService,
    key: Option<PlanKey>,
}

impl Drop for PlanClaim<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.svc
                .planning
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&key);
            self.svc.planning_done.notify_all();
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: u64,
    admitted: u64,
    queued: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    result_tuples: u64,
    // v8: per-class request counts.
    interactive_requests: u64,
    batch_requests: u64,
    background_requests: u64,
    // v8: load-shedding outcomes (both also count under `rejected`).
    shed_deadline: u64,
    shed_retry_after: u64,
    // v8: streaming.
    streamed_requests: u64,
    streamed_batches: u64,
    streamed_tuples: u64,
    // v8: table residency.
    residency_hits: u64,
    residency_misses: u64,
    residency_evictions: u64,
    // v8: queue-wait accounting. The histogram counts every admission
    // (immediate grants land in the first bucket); the EWMAs feed the
    // shedding policy's retry hints.
    wait_hist: [u64; WAIT_HIST_BUCKETS],
    wait_ewma_micros: u64,
    exec_ewma_micros: u64,
    /// Execution wall time summed over admitted requests (the report's
    /// `serve` phase).
    exec_micros_total: u64,
    /// Inner joins that reused a kept pair encoding / encoded afresh.
    encoding_hits: u64,
    encoding_misses: u64,
}

/// One resident (decoded, in-memory) relation, keyed by table name and
/// catalog version.
#[derive(Debug)]
struct ResidentEntry {
    rel: Arc<Relation>,
    pages: u64,
    last_used: u64,
}

/// Key of a kept pair encoding: outer table and catalog version, inner
/// table and catalog version.
type PairKey = (String, u64, String, u64);

/// The columnar encoding of one resident table pair, kept so a request on
/// the pair skips the encode pass.
#[derive(Debug)]
struct EncodingEntry {
    enc: Arc<EncodedPair>,
    pages: u64,
    last_used: u64,
}

/// LRU residency cache: hot relations stay decoded across requests under
/// a dedicated page budget, so a plan-cache hit on a hot pair performs no
/// heap I/O at all. Beside them it keeps the columnar encoding of each
/// resident pair that was joined, under the same budget: an encoding
/// lives only as long as both its relations stay resident.
#[derive(Debug, Default)]
struct Residency {
    tick: u64,
    total_pages: u64,
    entries: HashMap<(String, u64), ResidentEntry>,
    encodings: HashMap<PairKey, EncodingEntry>,
}

/// An entry the LRU sweep may evict.
enum Victim {
    Table((String, u64)),
    Encoding(PairKey),
}

impl Residency {
    fn get(&mut self, table: &str, version: u64) -> Option<Arc<Relation>> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&(table.to_owned(), version))?;
        e.last_used = tick;
        Some(Arc::clone(&e.rel))
    }

    /// Inserts a freshly-read relation, drops stale versions of the same
    /// table, and evicts least-recently-used entries past the budget.
    /// Returns how many tables were evicted (stale versions included —
    /// they can never be requested again, the catalog version only grows).
    fn insert(
        &mut self,
        table: &str,
        version: u64,
        rel: Arc<Relation>,
        pages: u64,
        budget: u64,
    ) -> u64 {
        let mut evicted = 0;
        let stale: Vec<(String, u64)> = self
            .entries
            .keys()
            .filter(|(t, v)| t == table && *v != version)
            .cloned()
            .collect();
        for k in stale {
            if self.remove_table(&k) {
                evicted += 1;
            }
        }
        if pages > budget {
            return evicted; // would never fit; serve uncached
        }
        self.tick += 1;
        let entry = ResidentEntry {
            rel,
            pages,
            last_used: self.tick,
        };
        let key = (table.to_owned(), version);
        // A replaced copy of the same version takes its encodings along:
        // they point at the old relation object.
        self.remove_table(&key);
        self.entries.insert(key, entry);
        self.total_pages += pages;
        evicted + self.evict_past(budget, &[])
    }

    /// Removes one resident table and every encoding that involves it;
    /// returns whether the table was resident.
    fn remove_table(&mut self, key: &(String, u64)) -> bool {
        let Some(e) = self.entries.remove(key) else {
            return false;
        };
        self.total_pages -= e.pages;
        let total = &mut self.total_pages;
        self.encodings.retain(|(o, ov, i, iv), e| {
            let involved = (o == &key.0 && *ov == key.1) || (i == &key.0 && *iv == key.1);
            if involved {
                *total -= e.pages;
            }
            !involved
        });
        true
    }

    /// Evicts least-recently-used tables and encodings, except the tables
    /// in `keep`, until the budget holds; returns how many tables were
    /// evicted.
    fn evict_past(&mut self, budget: u64, keep: &[(String, u64)]) -> u64 {
        let mut evicted = 0;
        while self.total_pages > budget {
            let tables = self
                .entries
                .iter()
                .filter(|(k, _)| !keep.contains(k))
                .map(|(k, e)| (e.last_used, Victim::Table(k.clone())));
            let encodings = self
                .encodings
                .iter()
                .map(|(k, e)| (e.last_used, Victim::Encoding(k.clone())));
            let Some((_, victim)) = tables.chain(encodings).min_by_key(|(t, _)| *t) else {
                break;
            };
            match victim {
                Victim::Table(k) => {
                    self.remove_table(&k);
                    evicted += 1;
                }
                Victim::Encoding(k) => {
                    if let Some(e) = self.encodings.remove(&k) {
                        self.total_pages -= e.pages;
                    }
                }
            }
        }
        evicted
    }

    /// Whether `rel` is the resident copy of `key`.
    fn holds(&self, key: &(String, u64), rel: &Arc<Relation>) -> bool {
        self.entries
            .get(key)
            .is_some_and(|e| Arc::ptr_eq(&e.rel, rel))
    }

    /// The kept encoding of `key`, if `r` and `s` are the resident copies
    /// it encodes (a request may hold a copy read before an eviction).
    fn get_encoding(
        &mut self,
        key: &PairKey,
        r: &Arc<Relation>,
        s: &Arc<Relation>,
    ) -> Option<Arc<EncodedPair>> {
        let (outer, inner) = ((key.0.clone(), key.1), (key.2.clone(), key.3));
        if !(self.holds(&outer, r) && self.holds(&inner, s)) {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let e = self.encodings.get_mut(key)?;
        e.last_used = tick;
        Some(Arc::clone(&e.enc))
    }

    /// Keeps `enc` as the encoding of `key` if `r` and `s` are the
    /// resident copies and all three fit the budget together, evicting
    /// other entries as needed. Returns how many tables were evicted.
    fn insert_encoding(
        &mut self,
        key: PairKey,
        enc: Arc<EncodedPair>,
        (r, s): (&Arc<Relation>, &Arc<Relation>),
        pages: u64,
        budget: u64,
    ) -> u64 {
        let sides = [(key.0.clone(), key.1), (key.2.clone(), key.3)];
        if !(self.holds(&sides[0], r) && self.holds(&sides[1], s)) {
            return 0;
        }
        let mut pair_pages = pages + self.entries[&sides[0]].pages;
        if sides[1] != sides[0] {
            pair_pages += self.entries[&sides[1]].pages;
        }
        if pair_pages > budget {
            return 0;
        }
        self.tick += 1;
        let entry = EncodingEntry {
            enc,
            pages,
            last_used: self.tick,
        };
        if let Some(old) = self.encodings.insert(key, entry) {
            self.total_pages -= old.pages;
        }
        self.total_pages += pages;
        self.evict_past(budget, &sides)
    }
}

/// Configuration of a [`JoinService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Join configuration every request plans and runs under (buffer
    /// budget, cost ratio, sampling seed).
    pub join: JoinConfig,
    /// Total shared buffer-pool pages the admission controller manages.
    pub pool_pages: u64,
    /// Maximum requests allowed to block waiting for pool pages before
    /// further requests are rejected as [`Rejected::Saturated`].
    /// Background requests never occupy these slots.
    pub max_queue: u64,
    /// Worker threads per admitted join.
    pub threads_per_query: usize,
    /// Kernel policy for the parallel executor.
    pub kernel: KernelChoice,
    /// Physical batch layout of the executors. [`Layout`] has the single
    /// variant `Columnar`, so this selects nothing; the field stays so
    /// that configurations naming a layout keep compiling.
    pub layout: Layout,
    /// Grid policy for the executor's key axis: cost-chosen (`Auto`, the
    /// default), forced time-only, forced key × time, or a fixed bucket
    /// count. Overridable per request via [`JoinService::submit_grid`].
    pub grid: GridChoice,
    /// Whether the plan cache is consulted at all (disable for ablations;
    /// every request then replans).
    pub plan_cache: bool,
    /// Page budget of the LRU table-residency cache, which holds the
    /// decoded relations and the columnar encodings of resident pairs (0
    /// disables both; the default is half the pool).
    pub residency_pages: u64,
}

impl ServiceConfig {
    /// A service configuration with the given join config and pool size;
    /// queue bound 16, 4 threads per query, automatic kernel gate,
    /// cost-chosen grid, plan cache on, residency budget half the pool.
    pub fn new(join: JoinConfig, pool_pages: u64) -> ServiceConfig {
        ServiceConfig {
            join,
            pool_pages,
            max_queue: 16,
            threads_per_query: 4,
            kernel: KernelChoice::Auto,
            layout: Layout::default(),
            grid: GridChoice::Auto,
            plan_cache: true,
            residency_pages: pool_pages / 2,
        }
    }
}

/// What admission handed back for one accepted request.
struct Admit {
    reservation: PageReservation,
    admission: Admission,
    wait_micros: u64,
}

/// A concurrent multi-query join service over one [`Database`]: fair
/// priority-aware admission against a shared page pool, deadline-aware
/// load shedding, a statistics-fingerprinted plan cache, LRU table
/// residency, and materialized or streamed execution on the work-stealing
/// parallel executor. All methods take `&self`; the service is `Sync` and
/// meant to be shared across submitter threads.
#[derive(Debug)]
pub struct JoinService {
    db: RwLock<Database>,
    cfg: ServiceConfig,
    pool: PagePool,
    cache: Mutex<HashMap<PlanKey, CacheEntry>>,
    /// Single-flight guard: keys whose plan is being computed right now.
    /// Concurrent requests for the same key wait on the condvar and take
    /// the cache hit instead of racing a redundant sampling pass.
    planning: Mutex<HashSet<PlanKey>>,
    planning_done: Condvar,
    residency: Mutex<Residency>,
    counters: Mutex<Counters>,
    io_base: IoStats,
    /// Database page size, to charge kept encodings in residency pages.
    page_bytes: u64,
}

impl JoinService {
    /// Wraps a database in a service under the given configuration.
    pub fn new(db: Database, cfg: ServiceConfig) -> JoinService {
        let io_base = db.io_stats();
        let page_bytes = db.disk().page_size().max(1) as u64;
        let pool = PagePool::new(cfg.pool_pages);
        JoinService {
            db: RwLock::new(db),
            cfg,
            pool,
            cache: Mutex::new(HashMap::new()),
            planning: Mutex::new(HashSet::new()),
            planning_done: Condvar::new(),
            residency: Mutex::new(Residency::default()),
            counters: Mutex::new(Counters::default()),
            io_base,
            page_bytes,
        }
    }

    /// The underlying database, for catalog reads and table maintenance.
    /// Writers (append / create) naturally invalidate affected plans at
    /// the next submit through the version stamp in the fingerprint.
    pub fn database(&self) -> &RwLock<Database> {
        &self.db
    }

    /// Consumes the service, returning the database.
    pub fn into_database(self) -> Database {
        self.db.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends tuples to a table (convenience write-lock wrapper). The
    /// table's version stamp bumps, so cached plans over it revalidate
    /// against the fresh statistics — and the stale resident copy is
    /// dropped — on the next request.
    pub fn append(&self, table: &str, tuples: &[Tuple]) -> Result<(), DbError> {
        self.write_db().append(table, tuples)
    }

    /// Reserves `pages` of the shared pool out-of-band, at interactive
    /// urgency and without blocking (maintenance windows, benchmarks that
    /// need a deterministically saturated pool). Returns `None` when the
    /// pool cannot grant the reservation right now; dropping the
    /// reservation returns the pages.
    pub fn reserve_maintenance(&self, pages: u64) -> Option<PageReservation> {
        self.pool.try_reserve_prio(pages, PRIORITY_URGENT)
    }

    fn read_db(&self) -> std::sync::RwLockReadGuard<'_, Database> {
        self.db.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_db(&self) -> std::sync::RwLockWriteGuard<'_, Database> {
        self.db.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_counters(&self) -> MutexGuard<'_, Counters> {
        self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Submits one join request: `outer ⋈ᵛ inner`. Blocks while queued for
    /// pool pages; returns typed errors for rejections, catalog problems,
    /// and join failures. Safe to call from many threads concurrently.
    pub fn submit(&self, outer: &str, inner: &str) -> Result<JoinResponse, ServiceError> {
        self.submit_with(outer, inner, &JoinPredicate::intersects())
    }

    /// As [`JoinService::submit`], joining under an arbitrary
    /// [`JoinPredicate`]. Intersection-template predicates go through the
    /// plan cache (keyed per predicate) and the partitioned executor;
    /// sequence/mixed templates skip planning entirely and run the merge
    /// fallback ([`PlanOutcome::Unpartitioned`]). Admission control is
    /// identical for every predicate.
    pub fn submit_with(
        &self,
        outer: &str,
        inner: &str,
        pred: &JoinPredicate,
    ) -> Result<JoinResponse, ServiceError> {
        self.submit_opts(outer, inner, pred, &SubmitOptions::default())
    }

    /// As [`JoinService::submit_with`], overriding the service's configured
    /// [`GridChoice`] for this one request (the serve protocol's `grid=`
    /// token). Plans are cached per grid choice, so a `1xN` request never
    /// reuses — or poisons — an `auto` entry.
    pub fn submit_grid(
        &self,
        outer: &str,
        inner: &str,
        pred: &JoinPredicate,
        grid: GridChoice,
    ) -> Result<JoinResponse, ServiceError> {
        self.submit_opts(
            outer,
            inner,
            pred,
            &SubmitOptions {
                grid: Some(grid),
                ..SubmitOptions::default()
            },
        )
    }

    /// The full-contract submission: one join request under explicit
    /// [`SubmitOptions`] (priority class, admission deadline, page-budget
    /// cap, grid override).
    pub fn submit_opts(
        &self,
        outer: &str,
        inner: &str,
        pred: &JoinPredicate,
        opts: &SubmitOptions,
    ) -> Result<JoinResponse, ServiceError> {
        let (r_heap, s_heap, r_stats, s_stats, pages) = self.snapshot(outer, inner, opts)?;
        let admit = self.admit(pages, opts)?;
        let grid = opts.grid.unwrap_or(self.cfg.grid);

        // Plan and execute; any failure from here on is a typed
        // per-request error and must be counted, with the page reservation
        // released either way (RAII).
        let exec_started = Instant::now();
        let outcome = self.plan_and_run(
            outer, inner, pred, &opts.op, grid, &r_heap, &s_heap, &r_stats, &s_stats, pages,
        );
        drop(admit.reservation);
        let exec_micros = exec_started.elapsed().as_micros() as u64;
        let mut c = self.lock_counters();
        c.exec_micros_total += exec_micros;
        match outcome {
            Ok((result, plan, partitions, key_buckets, operator)) => {
                c.completed += 1;
                c.result_tuples += result.len() as u64;
                c.exec_ewma_micros = (c.exec_ewma_micros * 7 + exec_micros) / 8;
                drop(c);
                Ok(JoinResponse {
                    result,
                    plan,
                    admission: admit.admission,
                    partitions,
                    key_buckets,
                    reserved_pages: pages,
                    wait_micros: admit.wait_micros,
                    operator,
                })
            }
            Err(e) => {
                c.failed += 1;
                Err(e)
            }
        }
    }

    /// Streaming submission: the join result is delivered to `sink`
    /// incrementally, one non-empty [`vtjoin_join::kernel::OutputBatch`]
    /// wire unit at a time, in deterministic order — concatenated, the
    /// batches are byte-identical to the materialized result of the same
    /// request at any thread count. Admission, shedding, planning, and
    /// accounting are identical to [`JoinService::submit_opts`]; a request
    /// that fails mid-stream has delivered a (deterministic) prefix.
    pub fn submit_streamed(
        &self,
        outer: &str,
        inner: &str,
        pred: &JoinPredicate,
        opts: &SubmitOptions,
        sink: &mut dyn FnMut(Vec<Tuple>),
    ) -> Result<StreamedResponse, ServiceError> {
        if !opts.op.is_inner() {
            // Dangling emission is only final once the tracked sweep has
            // drained every cell, so non-inner operators have no
            // deterministic streamable prefix.
            return Err(ServiceError::Join(JoinError::Precondition(
                "streaming supports only the inner join; submit non-inner operators materialized",
            )));
        }
        let (r_heap, s_heap, r_stats, s_stats, pages) = self.snapshot(outer, inner, opts)?;
        {
            let mut c = self.lock_counters();
            c.streamed_requests += 1;
        }
        let admit = self.admit(pages, opts)?;
        let grid = opts.grid.unwrap_or(self.cfg.grid);

        let exec_started = Instant::now();
        let outcome = self.plan_and_stream(
            outer, inner, pred, grid, &r_heap, &s_heap, &r_stats, &s_stats, pages, sink,
        );
        drop(admit.reservation);
        let exec_micros = exec_started.elapsed().as_micros() as u64;
        let mut c = self.lock_counters();
        c.exec_micros_total += exec_micros;
        match outcome {
            Ok((summary, plan, partitions, key_buckets)) => {
                c.completed += 1;
                c.result_tuples += summary.tuples;
                c.streamed_batches += summary.batches;
                c.streamed_tuples += summary.tuples;
                c.exec_ewma_micros = (c.exec_ewma_micros * 7 + exec_micros) / 8;
                drop(c);
                Ok(StreamedResponse {
                    plan,
                    admission: admit.admission,
                    partitions,
                    key_buckets,
                    reserved_pages: pages,
                    wait_micros: admit.wait_micros,
                    batches: summary.batches,
                    tuples: summary.tuples,
                })
            }
            Err(e) => {
                c.failed += 1;
                Err(e)
            }
        }
    }

    /// Phase 1 — catalog snapshot and footprint accounting. Heap files
    /// are cheap clones (page ranges + zone maps); holding them keeps this
    /// request's view stable even if the table is rewritten mid-flight,
    /// and lets the db lock drop before any blocking, so admission can
    /// never deadlock against writers. The footprint charges both
    /// relations *and* the configured join buffer — the pages the
    /// partition join actually works in.
    #[allow(clippy::type_complexity)]
    fn snapshot(
        &self,
        outer: &str,
        inner: &str,
        opts: &SubmitOptions,
    ) -> Result<(HeapFile, HeapFile, TableStats, TableStats, u64), ServiceError> {
        {
            let mut c = self.lock_counters();
            c.requests += 1;
            match opts.priority {
                Priority::Interactive => c.interactive_requests += 1,
                Priority::Batch => c.batch_requests += 1,
                Priority::Background => c.background_requests += 1,
            }
        }
        let (r_heap, s_heap, r_stats, s_stats) = {
            let db = self.read_db();
            let r_heap = db.table(outer).map_err(ServiceError::Db)?.clone();
            let s_heap = db.table(inner).map_err(ServiceError::Db)?.clone();
            let r_stats = db.table_stats(outer).map_err(ServiceError::Db)?;
            let s_stats = db.table_stats(inner).map_err(ServiceError::Db)?;
            (r_heap, s_heap, r_stats, s_stats)
        };
        let pages = (r_stats.pages + s_stats.pages + self.cfg.join.buffer_pages).max(1);
        if let Some(budget) = opts.page_budget {
            if pages > budget {
                self.lock_counters().rejected += 1;
                return Err(ServiceError::Rejected(Rejected::TooLarge {
                    pages,
                    pool_pages: budget,
                }));
            }
        }
        Ok((r_heap, s_heap, r_stats, s_stats, pages))
    }

    /// Phase 2 — admission under the shedding policy. Interactive and
    /// batch requests queue (ticket-ordered, FIFO within priority) up to
    /// the configured bound and their deadline; background requests never
    /// queue — they are admitted immediately or shed with a retry hint.
    fn admit(&self, pages: u64, opts: &SubmitOptions) -> Result<Admit, ServiceError> {
        // Pre-queue shed: if the queue is non-empty and the observed
        // queue wait already exceeds the request's whole deadline, the
        // request cannot make it — refuse it without burning a queue slot.
        if let Some(d) = opts.deadline {
            let mut c = self.lock_counters();
            if self.pool.waiting() > 0 && c.wait_ewma_micros > d.as_micros() as u64 {
                c.rejected += 1;
                c.shed_deadline += 1;
                return Err(ServiceError::Rejected(Rejected::DeadlineExceeded {
                    waited_micros: 0,
                }));
            }
        }
        let background = opts.priority == Priority::Background;
        let req = ReserveRequest {
            pages,
            priority: opts.priority.storage_class(),
            max_waiting: if background { 0 } else { self.cfg.max_queue },
            deadline: opts.deadline,
        };
        match self.pool.reserve_request(req) {
            Ok(adm) => {
                let mut c = self.lock_counters();
                c.admitted += 1;
                if adm.waited {
                    c.queued += 1;
                }
                c.wait_hist[wait_bucket(adm.wait_micros)] += 1;
                c.wait_ewma_micros = (c.wait_ewma_micros * 7 + adm.wait_micros) / 8;
                Ok(Admit {
                    reservation: adm.reservation,
                    admission: if adm.waited {
                        Admission::Queued
                    } else {
                        Admission::Immediate
                    },
                    wait_micros: adm.wait_micros,
                })
            }
            Err(ReserveError::TooLarge { pages, capacity }) => {
                self.lock_counters().rejected += 1;
                Err(ServiceError::Rejected(Rejected::TooLarge {
                    pages,
                    pool_pages: capacity,
                }))
            }
            Err(ReserveError::Saturated {
                waiting,
                max_waiting,
            }) => {
                let mut c = self.lock_counters();
                c.rejected += 1;
                if background {
                    c.shed_retry_after += 1;
                    let millis = ((c.wait_ewma_micros + c.exec_ewma_micros) / 1000).max(1);
                    Err(ServiceError::Rejected(Rejected::RetryAfter { millis }))
                } else {
                    Err(ServiceError::Rejected(Rejected::Saturated {
                        waiting,
                        max_waiting,
                    }))
                }
            }
            Err(ReserveError::DeadlineExceeded { waited_micros }) => {
                let mut c = self.lock_counters();
                c.rejected += 1;
                c.shed_deadline += 1;
                // The expired wait is still a queue-wait observation.
                c.wait_ewma_micros = (c.wait_ewma_micros * 7 + waited_micros) / 8;
                Err(ServiceError::Rejected(Rejected::DeadlineExceeded {
                    waited_micros,
                }))
            }
        }
    }

    /// Reads one relation through the LRU residency cache: a hit returns
    /// the resident copy at zero I/O; a miss reads the heap and makes the
    /// relation resident (evicting least-recently-used entries past the
    /// budget). Keyed by catalog version, so a rewritten table can never
    /// serve a stale copy.
    fn resident_relation(
        &self,
        table: &str,
        heap: &HeapFile,
        stats: &TableStats,
    ) -> Result<Arc<Relation>, ServiceError> {
        if self.cfg.residency_pages == 0 {
            let rel = heap
                .read_all()
                .map_err(|e| ServiceError::Join(JoinError::Storage(e)))?;
            return Ok(Arc::new(rel));
        }
        {
            let mut res = self.residency.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(rel) = res.get(table, stats.version) {
                self.lock_counters().residency_hits += 1;
                return Ok(rel);
            }
        }
        // Read outside the residency lock: concurrent misses on different
        // tables read in parallel (a double miss on the same table costs
        // one redundant read; last insert wins).
        let rel = Arc::new(
            heap.read_all()
                .map_err(|e| ServiceError::Join(JoinError::Storage(e)))?,
        );
        let evicted = {
            let mut res = self.residency.lock().unwrap_or_else(|e| e.into_inner());
            res.insert(
                table,
                stats.version,
                Arc::clone(&rel),
                stats.pages,
                self.cfg.residency_pages,
            )
        };
        let mut c = self.lock_counters();
        c.residency_misses += 1;
        c.residency_evictions += evicted;
        Ok(rel)
    }

    /// The columnar encoding of a resident table pair for an inner join:
    /// the kept one when it encodes exactly `r` and `s`, else a fresh
    /// encode, kept beside the resident relations under the residency
    /// budget. `None` — the executor encodes for itself — when residency
    /// is off.
    fn pair_encoding(
        &self,
        outer: &str,
        r_stats: &TableStats,
        inner: &str,
        s_stats: &TableStats,
        r: &Arc<Relation>,
        s: &Arc<Relation>,
    ) -> Result<Option<Arc<EncodedPair>>, ServiceError> {
        if self.cfg.residency_pages == 0 {
            return Ok(None);
        }
        let key = (
            outer.to_owned(),
            r_stats.version,
            inner.to_owned(),
            s_stats.version,
        );
        let kept = self
            .residency
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_encoding(&key, r, s);
        if let Some(enc) = kept {
            self.lock_counters().encoding_hits += 1;
            return Ok(Some(enc));
        }
        // Encode outside the residency lock, like a relation read.
        let spec = JoinSpec::natural(r.schema(), s.schema()).map_err(ServiceError::Join)?;
        let enc = Arc::new(EncodedPair::encode(&spec, r.iter(), s.iter()));
        let pages = enc.heap_bytes().div_ceil(self.page_bytes);
        let evicted = self
            .residency
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert_encoding(
                key,
                Arc::clone(&enc),
                (r, s),
                pages,
                self.cfg.residency_pages,
            );
        let mut c = self.lock_counters();
        c.encoding_misses += 1;
        c.residency_evictions += evicted;
        Ok(Some(enc))
    }

    /// Phases 3 & 4 — plan (through the cache) and execute, materialized.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn plan_and_run(
        &self,
        outer: &str,
        inner: &str,
        pred: &JoinPredicate,
        op: &Operator,
        grid: GridChoice,
        r_heap: &HeapFile,
        s_heap: &HeapFile,
        r_stats: &TableStats,
        s_stats: &TableStats,
        reserved_pages: u64,
    ) -> Result<(Relation, PlanOutcome, u64, u64, Option<OperatorCounters>), ServiceError> {
        let (r_rel, s_rel, plan, outcome) = self.plan_phase(
            outer, inner, pred, op, grid, r_heap, s_heap, r_stats, s_stats,
        )?;
        let Some(plan) = plan else {
            // Sequence/mixed template: no time partitioning. The inner
            // join takes the stream-shape merge fallback; non-inner
            // operators run the tracked executor over the trivial
            // partitioning (it routes to its own nested fallback).
            if !op.is_inner() {
                let (result, counters) = operator_join(
                    &r_rel,
                    &s_rel,
                    op,
                    pred,
                    &[Interval::ALL],
                    1,
                    self.cfg.threads_per_query,
                    self.cfg.layout,
                )
                .map_err(ServiceError::Join)?;
                return Ok((result, outcome, 0, 0, Some(counters)));
            }
            let result = crate::parallel::parallel_partition_join_pred(
                &r_rel,
                &s_rel,
                &[Interval::ALL],
                self.cfg.threads_per_query,
                pred,
            )
            .map_err(ServiceError::Join)?;
            return Ok((result, outcome, 0, 0, None));
        };
        let partitions = plan.intervals.len() as u64;
        let key_buckets = plan.key_buckets;
        if !op.is_inner() {
            // Non-inner operators reuse the cached partition boundaries
            // and key-bucket count, but execute through the
            // dangling-tracking operator executor instead of the sharded
            // inner-join grid.
            let (result, counters) = operator_join(
                &r_rel,
                &s_rel,
                op,
                pred,
                &plan.intervals,
                key_buckets as usize,
                self.cfg.threads_per_query,
                self.cfg.layout,
            )
            .map_err(ServiceError::Join)?;
            return Ok((result, outcome, partitions, key_buckets, Some(counters)));
        }
        // Shard execution: the request's admitted page budget becomes a
        // private sub-pool, and each grid worker pins its per-shard share
        // for its whole lifetime — admission-visible memory accounting
        // with no locking inside the join loop.
        let threads = self.cfg.threads_per_query.max(1);
        let shard_pool = PagePool::new(reserved_pages);
        let share = reserved_pages.div_ceil(threads as u64).max(1);
        let enc = self.pair_encoding(outer, r_stats, inner, s_stats, &r_rel, &s_rel)?;
        let (result, _) = execute(
            &r_rel,
            &s_rel,
            &plan.intervals,
            plan.key_buckets,
            threads,
            self.cfg.kernel,
            pred,
            Some((&shard_pool, share)),
            enc.as_deref(),
        )
        .map_err(ServiceError::Join)?;
        Ok((result, outcome, partitions, key_buckets, None))
    }

    /// Phases 3 & 4, streamed: identical planning, execution through the
    /// streaming executor behind [`crate::parallel::grid_join_streamed`] (which routes sequence/mixed templates to
    /// the streaming merge fallback itself).
    #[allow(clippy::too_many_arguments)]
    fn plan_and_stream(
        &self,
        outer: &str,
        inner: &str,
        pred: &JoinPredicate,
        grid: GridChoice,
        r_heap: &HeapFile,
        s_heap: &HeapFile,
        r_stats: &TableStats,
        s_stats: &TableStats,
        reserved_pages: u64,
        sink: &mut dyn FnMut(Vec<Tuple>),
    ) -> Result<(StreamSummary, PlanOutcome, u64, u64), ServiceError> {
        let (r_rel, s_rel, plan, outcome) = self.plan_phase(
            outer,
            inner,
            pred,
            &Operator::Inner,
            grid,
            r_heap,
            s_heap,
            r_stats,
            s_stats,
        )?;
        let (plan, partitions, key_buckets, enc) = match plan {
            Some(p) => {
                let parts = p.intervals.len() as u64;
                let kb = p.key_buckets;
                let enc = self.pair_encoding(outer, r_stats, inner, s_stats, &r_rel, &s_rel)?;
                (p, parts, kb, enc)
            }
            None => (GridPlan::time_only(vec![Interval::ALL]), 0, 0, None),
        };
        let threads = self.cfg.threads_per_query.max(1);
        let shard_pool = PagePool::new(reserved_pages);
        let share = reserved_pages.div_ceil(threads as u64).max(1);
        let summary = stream(
            &r_rel,
            &s_rel,
            &plan,
            threads,
            self.cfg.kernel,
            pred,
            (&shard_pool, share),
            sink,
            enc.as_deref(),
        )
        .map_err(ServiceError::Join)?;
        Ok((summary, outcome, partitions, key_buckets))
    }

    /// Shared planning front half: residency-cached relation reads plus
    /// the plan-cache lookup. Returns `None` for the plan when the
    /// predicate cannot be served by partitioning (merge fallback).
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn plan_phase(
        &self,
        outer: &str,
        inner: &str,
        pred: &JoinPredicate,
        op: &Operator,
        grid: GridChoice,
        r_heap: &HeapFile,
        s_heap: &HeapFile,
        r_stats: &TableStats,
        s_stats: &TableStats,
    ) -> Result<(Arc<Relation>, Arc<Relation>, Option<GridPlan>, PlanOutcome), ServiceError> {
        let r_rel = self.resident_relation(outer, r_heap, r_stats)?;
        let s_rel = self.resident_relation(inner, s_heap, s_stats)?;

        // Sequence/mixed templates cannot use time partitioning: skip the
        // planner and the plan cache entirely.
        if !pred.partitioning_eligible() {
            return Ok((r_rel, s_rel, None, PlanOutcome::Unpartitioned));
        }

        let seed = self.cfg.join.seed;
        let outer_fp = StatsFingerprint::from_stats(*r_stats, seed);
        let inner_fp = StatsFingerprint::from_stats(*s_stats, seed);
        let (plan, outcome) = self.plan(
            outer, inner, pred, op, grid, &outer_fp, &inner_fp, r_heap, s_heap, &r_rel, &s_rel,
        )?;
        Ok((r_rel, s_rel, Some(plan), outcome))
    }

    /// Plan-cache lookup → reuse or fresh `determinePartIntervals` plus
    /// grid planning. The cache lock is held only around lookup/insert,
    /// never across the sampling I/O; concurrent misses for the *same* key
    /// are single-flighted (one thread samples, the rest park on a condvar
    /// and take the published hit), while misses for distinct keys still
    /// plan in parallel. The key includes
    /// the predicate's canonical name and the grid choice, so a plan
    /// computed for one predicate or grid policy is never handed to
    /// another. A hit reuses both the cached time boundaries *and* the
    /// cached key-bucket count — zero planning I/O and no re-histogram.
    #[allow(clippy::too_many_arguments)]
    fn plan(
        &self,
        outer: &str,
        inner: &str,
        pred: &JoinPredicate,
        op: &Operator,
        grid: GridChoice,
        outer_fp: &StatsFingerprint,
        inner_fp: &StatsFingerprint,
        r_heap: &HeapFile,
        s_heap: &HeapFile,
        r_rel: &Relation,
        s_rel: &Relation,
    ) -> Result<(GridPlan, PlanOutcome), ServiceError> {
        let key = (
            outer.to_owned(),
            inner.to_owned(),
            pred.to_string(),
            grid.to_string(),
            op.to_string(),
        );
        let mut invalidated = false;
        if self.cfg.plan_cache {
            // Single-flight: at most one thread runs the sampling pass per
            // key; concurrent requests for the same key park here and take
            // the cache hit the planner publishes.
            let mut planning = self.planning.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                {
                    let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(entry) = cache.get(&key) {
                        if entry.still_valid(outer_fp, inner_fp) {
                            let plan = GridPlan {
                                key_buckets: entry.key_buckets,
                                intervals: entry.intervals.clone(),
                            };
                            drop(cache);
                            drop(planning);
                            self.lock_counters().cache_hits += 1;
                            return Ok((plan, PlanOutcome::CacheHit));
                        }
                        cache.remove(&key);
                        invalidated = true;
                    }
                }
                if !planning.contains(&key) {
                    planning.insert(key.clone());
                    break;
                }
                planning = self
                    .planning_done
                    .wait(planning)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        // Releases the single-flight claim on every exit, including the
        // error paths, so waiters never hang on a failed planner.
        let _claim = PlanClaim {
            svc: self,
            key: self.cfg.plan_cache.then(|| key.clone()),
        };

        let planner = determine_part_intervals(r_heap, s_heap, None, &self.cfg.join)
            .map_err(ServiceError::Join)?;
        let part_size = planner.plan.part_size;
        let intervals = planner.plan.intervals;
        let spec = JoinSpec::natural(r_rel.schema(), s_rel.schema()).map_err(ServiceError::Join)?;
        let grid_out = plan_grid(
            &spec,
            r_rel,
            s_rel,
            &intervals,
            self.cfg.threads_per_query,
            grid,
        );
        {
            let mut c = self.lock_counters();
            c.cache_misses += 1;
            if invalidated {
                c.cache_invalidations += 1;
            }
        }
        if self.cfg.plan_cache {
            let error_size = plan_error_size(&self.cfg.join, part_size);
            let entry = CacheEntry {
                outer: *outer_fp,
                inner: *inner_fp,
                intervals: intervals.clone(),
                key_buckets: grid_out.plan.key_buckets,
                outer_tol_tuples: error_size * tuples_per_page_ceil(outer_fp),
                inner_tol_tuples: error_size * tuples_per_page_ceil(inner_fp),
            };
            self.cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key, entry);
        }
        let outcome = if invalidated {
            PlanOutcome::Invalidated
        } else {
            PlanOutcome::Miss
        };
        Ok((grid_out.plan, outcome))
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Number of relations currently resident in the LRU cache.
    pub fn resident_tables(&self) -> usize {
        self.residency
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Number of table-pair columnar encodings currently kept beside the
    /// resident relations.
    pub fn cached_encodings(&self) -> usize {
        self.residency
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .encodings
            .len()
    }

    /// The service accounting section (obs schema v8), combining request
    /// counters with the page pool's high-water marks.
    pub fn service_section(&self) -> ServiceSection {
        let c = *self.lock_counters();
        let pool = self.pool.stats();
        ServiceSection {
            requests: c.requests,
            admitted: c.admitted,
            queued: c.queued,
            rejected: c.rejected,
            completed: c.completed,
            failed: c.failed,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            cache_invalidations: c.cache_invalidations,
            queue_depth_high_water: pool.queue_high_water,
            pool_pages: self.pool.capacity(),
            pool_pages_high_water: pool.pages_high_water,
            interactive_requests: c.interactive_requests,
            batch_requests: c.batch_requests,
            background_requests: c.background_requests,
            shed_deadline: c.shed_deadline,
            shed_retry_after: c.shed_retry_after,
            streamed_requests: c.streamed_requests,
            streamed_batches: c.streamed_batches,
            streamed_tuples: c.streamed_tuples,
            residency_hits: c.residency_hits,
            residency_misses: c.residency_misses,
            residency_evictions: c.residency_evictions,
            queue_wait_ewma_micros: c.wait_ewma_micros,
            queue_wait_histogram: c.wait_hist.to_vec(),
        }
    }

    /// One execution report summarizing everything the service has done so
    /// far: cumulative I/O since construction, request/cache counters, and
    /// the schema-v8 `service` section.
    pub fn execution_report(&self) -> ExecutionReport {
        let c = *self.lock_counters();
        let io = {
            let db = self.read_db();
            db.io_stats() - self.io_base
        };
        let cfg = &self.cfg.join;
        ExecutionReport {
            algorithm: "service".into(),
            config: ConfigSection {
                buffer_pages: cfg.buffer_pages,
                random_cost: cfg.ratio.random,
                seed: cfg.seed,
            },
            result: ResultSection {
                tuples: c.result_tuples,
                pages: 0,
            },
            io: IoSection::from_stats(io, cfg.ratio),
            phases: vec![PhaseSection {
                name: "serve".into(),
                wall_micros: c.exec_micros_total,
                io: IoSection::from_stats(io, cfg.ratio),
                predicted_cost: None,
            }],
            counters: vec![
                Counter {
                    name: "pool_pages".into(),
                    value: self.pool.capacity() as i64,
                },
                Counter {
                    name: "threads_per_query".into(),
                    value: self.cfg.threads_per_query as i64,
                },
                Counter {
                    name: "max_queue".into(),
                    value: self.cfg.max_queue as i64,
                },
                Counter {
                    name: "cached_plans".into(),
                    value: self.cached_plans() as i64,
                },
                Counter {
                    name: "resident_tables".into(),
                    value: self.resident_tables() as i64,
                },
                Counter {
                    name: "cached_encodings".into(),
                    value: self.cached_encodings() as i64,
                },
                Counter {
                    name: "encoding_hits".into(),
                    value: c.encoding_hits as i64,
                },
                Counter {
                    name: "encoding_misses".into(),
                    value: c.encoding_misses as i64,
                },
            ],
            buffer_pool: None,
            plan: None,
            deviation: None,
            workers: Vec::new(),
            skew: None,
            kernel: None,
            faults: None,
            service: Some(self.service_section()),
            predicate: None,
            grid: None,
            columnar: None,
            operator: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::algebra::natural_join;
    use vtjoin_core::{AttrDef, AttrType, Schema, Value};

    fn rel(attr: &str, n: i64, long_every: i64) -> Relation {
        let schema = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new(attr, AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let tuples = (0..n)
            .map(|i| {
                let start = (i * 23) % 400;
                let iv = if long_every > 0 && i % long_every == 0 {
                    Interval::from_raw(start % 200, start % 200 + 200).unwrap()
                } else {
                    Interval::from_raw(start, start).unwrap()
                };
                Tuple::new(vec![Value::Int(i % 16), Value::Int(i)], iv)
            })
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    fn service(pool_pages: u64) -> JoinService {
        let mut db = Database::new(256);
        db.create_table("r", &rel("b", 600, 5)).unwrap();
        db.create_table("s", &rel("c", 600, 7)).unwrap();
        JoinService::new(
            db,
            ServiceConfig::new(JoinConfig::with_buffer(24), pool_pages),
        )
    }

    #[test]
    fn first_submit_misses_then_hits() {
        let svc = service(4096);
        let a = svc.submit("r", "s").unwrap();
        assert_eq!(a.plan, PlanOutcome::Miss);
        let b = svc.submit("r", "s").unwrap();
        assert_eq!(b.plan, PlanOutcome::CacheHit);
        let sec = svc.service_section();
        assert_eq!(sec.cache_hits, 1);
        assert_eq!(sec.cache_misses, 1);
        assert_eq!(sec.cache_invalidations, 0);
        assert!(a.result.multiset_eq(&b.result));
    }

    #[test]
    fn result_matches_the_oracle() {
        let svc = service(4096);
        let got = svc.submit("r", "s").unwrap().result;
        let want = natural_join(&rel("b", 600, 5), &rel("c", 600, 7)).unwrap();
        assert!(got.multiset_eq(&want));
    }

    #[test]
    fn oversize_request_is_rejected_not_deadlocked() {
        let svc = service(4); // smaller than either relation
        match svc.submit("r", "s") {
            Err(ServiceError::Rejected(Rejected::TooLarge { pool_pages: 4, .. })) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let sec = svc.service_section();
        assert_eq!(sec.rejected, 1);
        assert_eq!(sec.admitted, 0);
    }

    #[test]
    fn unknown_table_is_a_typed_error() {
        let svc = service(4096);
        assert!(matches!(
            svc.submit("r", "nope"),
            Err(ServiceError::Db(DbError::NoSuchTable(_)))
        ));
        assert_eq!(svc.service_section().failed, 0); // refused before admission
    }

    #[test]
    fn append_past_tolerance_invalidates() {
        let svc = service(4096);
        svc.submit("r", "s").unwrap();
        // Double the outer relation: far beyond any errorSize tolerance.
        let extra = rel("b", 600, 5).into_tuples();
        svc.append("r", &extra).unwrap();
        let resp = svc.submit("r", "s").unwrap();
        assert_eq!(resp.plan, PlanOutcome::Invalidated);
        let sec = svc.service_section();
        assert_eq!(sec.cache_misses, 2);
        assert_eq!(sec.cache_invalidations, 1);
    }

    #[test]
    fn disabled_cache_always_replans() {
        let mut cfg = ServiceConfig::new(JoinConfig::with_buffer(24), 4096);
        cfg.plan_cache = false;
        let mut db = Database::new(256);
        db.create_table("r", &rel("b", 600, 5)).unwrap();
        db.create_table("s", &rel("c", 600, 7)).unwrap();
        let svc = JoinService::new(db, cfg);
        svc.submit("r", "s").unwrap();
        svc.submit("r", "s").unwrap();
        let sec = svc.service_section();
        assert_eq!(sec.cache_hits, 0);
        assert_eq!(sec.cache_misses, 2);
        assert_eq!(svc.cached_plans(), 0);
    }

    #[test]
    fn predicates_cache_separately_and_match_the_oracle() {
        use vtjoin_core::algebra::predicate_join;
        let svc = service(4096);
        let during: JoinPredicate = "during".parse().unwrap();
        let overlaps: JoinPredicate = "overlaps".parse().unwrap();

        // Distinct predicates never share a cache entry: each first
        // submission misses, each repeat hits.
        let a = svc.submit_with("r", "s", &during).unwrap();
        assert_eq!(a.plan, PlanOutcome::Miss);
        let b = svc.submit_with("r", "s", &overlaps).unwrap();
        assert_eq!(b.plan, PlanOutcome::Miss);
        let c = svc.submit_with("r", "s", &during).unwrap();
        assert_eq!(c.plan, PlanOutcome::CacheHit);
        assert_eq!(svc.cached_plans(), 2);

        let r = rel("b", 600, 5);
        let s = rel("c", 600, 7);
        assert!(a
            .result
            .multiset_eq(&predicate_join(&r, &s, &during).unwrap()));
        assert!(b
            .result
            .multiset_eq(&predicate_join(&r, &s, &overlaps).unwrap()));
        assert!(a.result.multiset_eq(&c.result));
    }

    #[test]
    fn non_inner_operators_match_oracles_and_cache_per_operator() {
        use vtjoin_core::algebra::{
            antijoin_pred, full_outerjoin_pred, outerjoin_pred, predicate_join, semijoin_pred,
            JoinSide,
        };
        let svc = service(4096);
        let pred = JoinPredicate::intersects();
        let r = rel("b", 600, 5);
        let s = rel("c", 600, 7);
        let cases: Vec<(Operator, Relation)> = vec![
            (
                Operator::Left,
                outerjoin_pred(&r, &s, JoinSide::Left, &pred).unwrap(),
            ),
            (Operator::Full, full_outerjoin_pred(&r, &s, &pred).unwrap()),
            (Operator::Semi, semijoin_pred(&r, &s, &pred).unwrap()),
            (Operator::Anti, antijoin_pred(&r, &s, &pred).unwrap()),
        ];
        for (op, want) in &cases {
            let opts = SubmitOptions {
                op: op.clone(),
                ..SubmitOptions::default()
            };
            let resp = svc.submit_opts("r", "s", &pred, &opts).unwrap();
            assert_eq!(resp.plan, PlanOutcome::Miss, "{op}: first submit plans");
            assert!(resp.partitions > 0, "{op}: ran the partitioned executor");
            let counters = resp.operator.as_ref().expect("operator counters present");
            assert_eq!(counters.op, op.to_string());
            assert_eq!(resp.result.tuples(), want.tuples(), "{op}: oracle identity");
            let again = svc.submit_opts("r", "s", &pred, &opts).unwrap();
            assert_eq!(again.plan, PlanOutcome::CacheHit, "{op}: replan cached");
        }
        // Inner and non-inner submissions never share a plan entry.
        assert_eq!(svc.cached_plans(), cases.len());
        svc.submit("r", "s").unwrap();
        assert_eq!(svc.cached_plans(), cases.len() + 1);
        // The inner-join result is untouched by the new routing.
        assert!(predicate_join(&r, &s, &pred)
            .unwrap()
            .multiset_eq(&svc.submit("r", "s").unwrap().result));
    }

    #[test]
    fn streamed_requests_refuse_non_inner_operators() {
        let svc = service(4096);
        let opts = SubmitOptions {
            op: Operator::Semi,
            ..SubmitOptions::default()
        };
        let mut sink = |_batch: Vec<Tuple>| panic!("no batch may be delivered");
        match svc.submit_streamed("r", "s", &JoinPredicate::intersects(), &opts, &mut sink) {
            Err(ServiceError::Join(JoinError::Precondition(_))) => {}
            other => panic!("expected a streaming precondition refusal, got {other:?}"),
        }
        // Refused before admission: nothing was counted or reserved.
        let sec = svc.service_section();
        assert_eq!(sec.failed, 0);
        assert_eq!(sec.admitted, 0);
    }

    #[test]
    fn sequence_predicate_operators_run_unpartitioned_through_the_service() {
        use vtjoin_core::algebra::semijoin_pred;
        let svc = service(4096);
        let before: JoinPredicate = "before-within-40".parse().unwrap();
        let opts = SubmitOptions {
            op: Operator::Semi,
            ..SubmitOptions::default()
        };
        let resp = svc.submit_opts("r", "s", &before, &opts).unwrap();
        assert_eq!(resp.plan, PlanOutcome::Unpartitioned);
        assert!(resp.operator.as_ref().unwrap().fallback_nested);
        let want = semijoin_pred(&rel("b", 600, 5), &rel("c", 600, 7), &before).unwrap();
        assert_eq!(resp.result.tuples(), want.tuples());
    }

    #[test]
    fn sequence_predicates_bypass_the_plan_cache() {
        use vtjoin_core::algebra::predicate_join;
        let svc = service(4096);
        let before: JoinPredicate = "before-within-40".parse().unwrap();
        let resp = svc.submit_with("r", "s", &before).unwrap();
        assert_eq!(resp.plan, PlanOutcome::Unpartitioned);
        assert_eq!(resp.partitions, 0);
        assert_eq!(resp.key_buckets, 0, "merge fallback runs no grid");
        assert_eq!(svc.cached_plans(), 0);
        let sec = svc.service_section();
        assert_eq!(sec.cache_hits, 0);
        assert_eq!(sec.cache_misses, 0);
        let want = predicate_join(&rel("b", 600, 5), &rel("c", 600, 7), &before).unwrap();
        assert!(resp.result.multiset_eq(&want));
    }

    #[test]
    fn grid_choices_cache_separately_and_agree() {
        let svc = service(4096);
        let pred = JoinPredicate::intersects();
        // Default (auto) grid: key_buckets is whatever the cost model
        // picked, at least 1.
        let a = svc.submit("r", "s").unwrap();
        assert_eq!(a.plan, PlanOutcome::Miss);
        assert!(a.key_buckets >= 1);
        // A forced shape plans under its own cache key: first submission
        // misses even though the auto entry exists.
        let b = svc
            .submit_grid("r", "s", &pred, GridChoice::Fixed(4))
            .unwrap();
        assert_eq!(b.plan, PlanOutcome::Miss);
        assert_eq!(b.key_buckets, 4);
        let c = svc
            .submit_grid("r", "s", &pred, GridChoice::Fixed(4))
            .unwrap();
        assert_eq!(c.plan, PlanOutcome::CacheHit);
        assert_eq!(c.key_buckets, 4, "hit reuses the cached bucket count");
        assert_eq!(svc.cached_plans(), 2);
        // Every shape produces the same multiset, and a fixed shape is
        // byte-deterministic across submissions.
        assert!(a.result.multiset_eq(&b.result));
        assert_eq!(b.result.tuples(), c.result.tuples());
        // Forced time-only reports exactly one bucket.
        let t = svc
            .submit_grid("r", "s", &pred, GridChoice::TimeOnly)
            .unwrap();
        assert_eq!(t.key_buckets, 1);
        assert!(t.result.multiset_eq(&a.result));
    }

    #[test]
    fn report_round_trips_with_service_section() {
        let svc = service(4096);
        svc.submit("r", "s").unwrap();
        let report = svc.execution_report();
        assert_eq!(report.algorithm, "service");
        let sec = report.service.as_ref().expect("service section present");
        assert_eq!(sec.requests, 1);
        let back = ExecutionReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
        assert!(report.render_explain().contains("service:"));
    }

    #[test]
    fn serve_phase_accumulates_execution_time() {
        let svc = service(4096);
        let serve_micros = |svc: &JoinService| {
            let report = svc.execution_report();
            assert_eq!(report.phases.len(), 1);
            assert_eq!(report.phases[0].name, "serve");
            report.phases[0].wall_micros
        };
        assert_eq!(serve_micros(&svc), 0, "nothing executed yet");
        svc.submit("r", "s").unwrap();
        let mut last = serve_micros(&svc);
        assert!(last > 0, "one executed request takes time");
        let mut sink = |_: Vec<Tuple>| {};
        for i in 0..4 {
            if i % 2 == 0 {
                svc.submit("r", "s").unwrap();
            } else {
                svc.submit_streamed(
                    "r",
                    "s",
                    &JoinPredicate::intersects(),
                    &SubmitOptions::default(),
                    &mut sink,
                )
                .unwrap();
            }
            let now = serve_micros(&svc);
            assert!(now >= last, "serve time went back from {last} to {now}");
            last = now;
        }
    }

    #[test]
    fn reservation_charges_inputs_plus_join_buffer() {
        // Satellite (c) regression: admission must charge the configured
        // join buffer on top of the two relations, since the partition
        // join actually works in those pages.
        let svc = service(4096);
        let resp = svc.submit("r", "s").unwrap();
        let (r_pages, s_pages) = {
            let db = svc.database().read().unwrap();
            (
                db.table_stats("r").unwrap().pages,
                db.table_stats("s").unwrap().pages,
            )
        };
        assert_eq!(
            resp.reserved_pages,
            r_pages + s_pages + 24,
            "reservation = outer + inner + buffer_pages"
        );
    }

    #[test]
    fn per_request_page_budget_rejects_before_the_pool() {
        let svc = service(4096);
        let opts = SubmitOptions {
            page_budget: Some(8),
            ..SubmitOptions::default()
        };
        match svc.submit_opts("r", "s", &JoinPredicate::intersects(), &opts) {
            Err(ServiceError::Rejected(Rejected::TooLarge { pool_pages: 8, .. })) => {}
            other => panic!("expected TooLarge against the budget, got {other:?}"),
        }
        let sec = svc.service_section();
        assert_eq!(sec.rejected, 1);
        assert_eq!(sec.admitted, 0);
        assert_eq!(sec.batch_requests, 1);
    }

    #[test]
    fn background_sheds_with_retry_after_instead_of_queueing() {
        let svc = service(4096);
        // Deterministically saturate the pool out of band.
        let held = svc.reserve_maintenance(4096).expect("idle pool");
        let opts = SubmitOptions {
            priority: Priority::Background,
            ..SubmitOptions::default()
        };
        match svc.submit_opts("r", "s", &JoinPredicate::intersects(), &opts) {
            Err(ServiceError::Rejected(Rejected::RetryAfter { millis })) => {
                assert!(millis >= 1, "retry hint is at least 1 ms");
            }
            other => panic!("expected RetryAfter, got {other:?}"),
        }
        let sec = svc.service_section();
        assert_eq!(sec.shed_retry_after, 1);
        assert_eq!(sec.background_requests, 1);
        assert_eq!(sec.rejected, 1);
        drop(held);
        // The pool is whole again: the same request now succeeds.
        let resp = svc
            .submit_opts("r", "s", &JoinPredicate::intersects(), &opts)
            .unwrap();
        assert_eq!(resp.admission, Admission::Immediate);
    }

    #[test]
    fn queued_deadline_expiry_sheds_with_typed_outcome() {
        let svc = service(4096);
        let held = svc.reserve_maintenance(4096).expect("idle pool");
        let opts = SubmitOptions {
            deadline: Some(Duration::from_millis(15)),
            ..SubmitOptions::default()
        };
        match svc.submit_opts("r", "s", &JoinPredicate::intersects(), &opts) {
            Err(ServiceError::Rejected(Rejected::DeadlineExceeded { waited_micros })) => {
                assert!(waited_micros > 0, "the request actually queued");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let sec = svc.service_section();
        assert_eq!(sec.shed_deadline, 1);
        assert_eq!(sec.rejected, 1);
        drop(held);
        let resp = svc.submit("r", "s").unwrap();
        assert_eq!(resp.admission, Admission::Immediate, "pool fully usable");
    }

    #[test]
    fn streamed_submission_is_byte_identical_to_materialized() {
        let svc = service(4096);
        let want = svc.submit("r", "s").unwrap();
        let mut streamed: Vec<Tuple> = Vec::new();
        let resp = svc
            .submit_streamed(
                "r",
                "s",
                &JoinPredicate::intersects(),
                &SubmitOptions::default(),
                &mut |b| streamed.extend(b),
            )
            .unwrap();
        assert_eq!(resp.plan, PlanOutcome::CacheHit, "same plan cache");
        assert_eq!(streamed, want.result.tuples(), "byte-identical stream");
        assert_eq!(resp.tuples, streamed.len() as u64);
        assert!(resp.batches >= 1);
        let sec = svc.service_section();
        assert_eq!(sec.streamed_requests, 1);
        assert_eq!(sec.streamed_tuples, resp.tuples);
        assert_eq!(sec.streamed_batches, resp.batches);
    }

    #[test]
    fn residency_serves_hot_tables_without_heap_io() {
        let svc = service(4096);
        svc.submit("r", "s").unwrap();
        let io_after_first = {
            let db = svc.database().read().unwrap();
            db.io_stats()
        };
        let a = svc.submit("r", "s").unwrap();
        let io_after_second = {
            let db = svc.database().read().unwrap();
            db.io_stats()
        };
        // Plan-cache hit + resident tables ⇒ the second request reads
        // nothing from the heap at all.
        assert_eq!(a.plan, PlanOutcome::CacheHit);
        assert_eq!(io_after_second, io_after_first, "zero heap I/O when hot");
        let sec = svc.service_section();
        assert_eq!(sec.residency_misses, 2, "first request faulted both in");
        assert_eq!(sec.residency_hits, 2, "second request hit both");
        assert_eq!(svc.resident_tables(), 2);
    }

    #[test]
    fn residency_drops_stale_versions_on_append() {
        let svc = service(4096);
        svc.submit("r", "s").unwrap();
        svc.append("r", &rel("b", 10, 5).into_tuples()).unwrap();
        let resp = svc.submit("r", "s").unwrap();
        // The appended table re-faults (new version), the other stays hot.
        let sec = svc.service_section();
        assert_eq!(sec.residency_misses, 3);
        assert_eq!(sec.residency_hits, 1);
        assert_eq!(svc.resident_tables(), 2, "stale r copy was dropped");
        // And the result reflects the append, not the stale copy.
        let mut want_tuples = rel("b", 600, 5).into_tuples();
        want_tuples.extend(rel("b", 10, 5).into_tuples());
        let want_r =
            Relation::from_parts_unchecked(Arc::clone(rel("b", 1, 1).schema()), want_tuples);
        let want = natural_join(&want_r, &rel("c", 600, 7)).unwrap();
        assert!(resp.result.multiset_eq(&want));
    }

    #[test]
    fn wait_histogram_counts_every_admission() {
        let svc = service(4096);
        svc.submit("r", "s").unwrap();
        svc.submit("r", "s").unwrap();
        let sec = svc.service_section();
        let total: u64 = sec.queue_wait_histogram.iter().sum();
        assert_eq!(total, sec.admitted);
        assert_eq!(sec.queue_wait_histogram.len(), WAIT_HIST_BUCKETS);
    }
}
