//! The unified execution report.
//!
//! Every join path produces a [`ExecutionReport`]: one value unifying the
//! per-phase wall-clock timings, the four random/sequential I/O counters,
//! algorithm diagnostics, buffer-pool behaviour, the partition-join
//! planner's predicted costs, and — when predictions exist — a computed
//! predicted-vs-actual deviation section. The report renders two ways:
//! [`ExecutionReport::render_explain`] for humans and
//! [`ExecutionReport::to_json`] / [`ExecutionReport::from_json`] for
//! machines (see `docs/OBSERVABILITY.md` for the field-by-field schema).

use crate::json::{obj, Json, JsonError};
use std::fmt;
use vtjoin_storage::{CostRatio, IoStats};

/// Version stamped into every serialized report as `schema_version`.
/// Version 2 added `workers[].busy_micros` and the optional `skew`
/// section. Version 3 added the optional `faults` section
/// (fault-injection accounting and graceful-degradation outcome).
/// Version 4 added the optional `kernel` section (per-kernel partition
/// counts, sweep comparisons, batches flushed). Version 5 added the
/// optional `service` section (multi-query admission and plan-cache
/// accounting). Version 6 added the optional `predicate` section
/// (Allen-predicate name, compiled sweep template, and predicate-filter /
/// merge-fallback counters). Version 7 added the optional `grid` section
/// (2D key × time grid shape, cell counts and share, replication factor,
/// scatter/gather coordinator wait). Version 8 extended the `service`
/// section with priority-class request counts, load-shedding outcomes
/// (deadline / retry-after), streaming counters, LRU table-residency
/// counters, and a queue-wait histogram; all new fields decode as zero /
/// empty when absent, so v5–v7 service documents still parse. Version 9
/// added the optional `columnar` section (struct-of-arrays encode time,
/// radix-sort pass count, shared key-dictionary size, and
/// late-materialized row count), present when a run executed its kernels
/// on the columnar layout. Version 10 added the optional `operator`
/// section (temporal outer/semi/anti/aggregate executions: dangling
/// fragment, boundary-stitch, and timeline-checkpoint counters), present
/// when a run evaluated a non-inner member of the operator family.
///
/// Every post-v1 addition is an *optional* section or an optional field,
/// so [`ExecutionReport::from_json`] accepts any version from 1 up to the
/// current one — older (kernel-less, fault-less…) reports still parse —
/// and rejects only versions newer than it knows.
pub const SCHEMA_VERSION: i64 = 10;

/// Error produced when decoding a serialized report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The document is not valid JSON (or uses an out-of-subset feature).
    Json(JsonError),
    /// The document is JSON but not a well-formed report.
    Schema(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "{e}"),
            ReportError::Schema(msg) => write!(f, "report schema error: {msg}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Json(e)
    }
}

fn missing(key: &str) -> ReportError {
    ReportError::Schema(format!("missing or mistyped field '{key}'"))
}

fn req_u64(j: &Json, key: &str) -> Result<u64, ReportError> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| missing(key))
}

/// Decodes a field added after a section's first schema version: absent
/// means zero, so older documents still parse.
fn opt_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn req_i64(j: &Json, key: &str) -> Result<i64, ReportError> {
    j.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| missing(key))
}

fn req_str(j: &Json, key: &str) -> Result<String, ReportError> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| missing(key))
}

fn req_bool(j: &Json, key: &str) -> Result<bool, ReportError> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| missing(key))
}

fn req_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], ReportError> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| missing(key))
}

/// The configuration a run executed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigSection {
    /// Total main-memory budget in pages.
    pub buffer_pages: u64,
    /// Cost of one random access, in sequential-access units (the
    /// random:sequential ratio's numerator; sequential costs 1).
    pub random_cost: u64,
    /// RNG seed the run used.
    pub seed: u64,
}

/// Result cardinality. Result writes are cost-excluded (every algorithm
/// pays them identically), so only sizes are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultSection {
    /// Result tuples emitted.
    pub tuples: u64,
    /// Pages the result relation would occupy.
    pub pages: u64,
}

/// The four I/O counters plus derived totals, priced at the run's ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSection {
    /// Reads that required a seek.
    pub random_reads: u64,
    /// Reads that followed the previous read directly.
    pub seq_reads: u64,
    /// Writes that required a seek.
    pub random_writes: u64,
    /// Writes that followed the previous write directly.
    pub seq_writes: u64,
    /// Sum of all four counters.
    pub total_ios: u64,
    /// Weighted cost: `random × random_cost + sequential × 1`.
    pub cost: u64,
}

impl IoSection {
    /// Prices raw counters at `ratio`.
    pub fn from_stats(io: IoStats, ratio: CostRatio) -> IoSection {
        IoSection {
            random_reads: io.random_reads,
            seq_reads: io.seq_reads,
            random_writes: io.random_writes,
            seq_writes: io.seq_writes,
            total_ios: io.total_ios(),
            cost: io.cost(ratio),
        }
    }

    fn to_json(self) -> Json {
        obj(vec![
            ("random_reads", Json::Int(self.random_reads as i64)),
            ("seq_reads", Json::Int(self.seq_reads as i64)),
            ("random_writes", Json::Int(self.random_writes as i64)),
            ("seq_writes", Json::Int(self.seq_writes as i64)),
            ("total_ios", Json::Int(self.total_ios as i64)),
            ("cost", Json::Int(self.cost as i64)),
        ])
    }

    fn from_json(j: &Json) -> Result<IoSection, ReportError> {
        Ok(IoSection {
            random_reads: req_u64(j, "random_reads")?,
            seq_reads: req_u64(j, "seq_reads")?,
            random_writes: req_u64(j, "random_writes")?,
            seq_writes: req_u64(j, "seq_writes")?,
            total_ios: req_u64(j, "total_ios")?,
            cost: req_u64(j, "cost")?,
        })
    }
}

/// One execution phase: its I/O delta, wall-clock time, and (for phases
/// the planner modelled) the predicted cost it should have paid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSection {
    /// Phase name ("plan", "partition", "join", "sort-outer", …).
    pub name: String,
    /// Wall-clock duration in microseconds.
    pub wall_micros: u64,
    /// I/O performed during the phase.
    pub io: IoSection,
    /// The planner's predicted cost for this phase, when it made one
    /// (partition join: `C_sample` for "plan", `C_join` for "join").
    pub predicted_cost: Option<u64>,
}

/// A named algorithm diagnostic (partition count, samples drawn, …).
/// The full name registry lives in `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// Stable counter name.
    pub name: String,
    /// Counter value.
    pub value: i64,
}

/// Buffer-pool behaviour during the run, when a pool was involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPoolSection {
    /// Page requests served from memory.
    pub hits: u64,
    /// Page requests that went to disk.
    pub misses: u64,
    /// Dirty or clean frames evicted to make room.
    pub evictions: u64,
}

/// The predicted cost decomposition of the chosen plan (Figure 10's
/// objective, in cost units at the run's ratio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedCost {
    /// Sampling cost `m × IO_ran`.
    pub c_sample: u64,
    /// Partition-joining cost, including tuple-cache paging.
    pub c_join: u64,
    /// The tuple-cache paging component of `c_join`.
    pub c_cache: u64,
    /// Partition-count-dependent Grace flush-seek surcharge.
    pub c_partition_seeks: u64,
    /// The planner's objective: `c_sample + c_join + c_partition_seeks`.
    pub total: u64,
}

/// One row of the planner's candidate cost table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateRow {
    /// Candidate outer-partition size in pages.
    pub part_size: u64,
    /// Implied partition count.
    pub num_partitions: u64,
    /// Kolmogorov-required samples for the implied error budget.
    pub samples_required: u64,
    /// Predicted sampling cost.
    pub c_sample: u64,
    /// Predicted joining cost.
    pub c_join: u64,
    /// Tuple-cache component of `c_join`.
    pub c_cache: u64,
    /// Grace flush-seek surcharge.
    pub c_partition_seeks: u64,
    /// The candidate's objective value.
    pub total: u64,
    /// Whether the planner chose this candidate.
    pub chosen: bool,
}

/// What the partition-join planner decided and predicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSection {
    /// Chosen outer-partition size in pages.
    pub part_size: u64,
    /// Number of partitions the plan produced.
    pub num_partitions: u64,
    /// Error budget `errorSize = buffSize − partSize` in pages.
    pub error_size: u64,
    /// Samples physically drawn (their I/O is charged to the run).
    pub samples_drawn: u64,
    /// Estimated total tuple-cache pages.
    pub est_cache_pages: u64,
    /// Predicted cost decomposition of the chosen candidate.
    pub predicted: PredictedCost,
    /// The full candidate table, ascending by `part_size`.
    pub candidates: Vec<CandidateRow>,
}

/// Predicted-vs-actual comparison for the phases the cost model covers
/// (sampling + partition joining; Grace partitioning's base cost is
/// model-independent and excluded, §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviationSection {
    /// Predicted cost of the modelled phases (`C_sample + C_join`).
    pub predicted_cost: u64,
    /// Measured cost of the same phases at the run's ratio.
    pub actual_cost: u64,
    /// `actual − predicted` (positive: model was optimistic).
    pub error: i64,
    /// `error` as a percentage of the predicted cost, rounded.
    pub error_percent: i64,
    /// The model's own slack: each of the `n` partitions may overshoot
    /// its target by up to `errorSize` pages (the Kolmogorov guarantee),
    /// each overrun page costing at most one cache write + re-read at
    /// random price — `n × errorSize × 2 × random_cost` cost units.
    pub tolerance: u64,
    /// Whether `|error| ≤ tolerance`.
    pub within_tolerance: bool,
}

impl DeviationSection {
    /// Computes the deviation of `actual_cost` from `predicted_cost`
    /// under the errorSize-derived `tolerance`.
    pub fn compute(predicted_cost: u64, actual_cost: u64, tolerance: u64) -> DeviationSection {
        let error = actual_cost as i64 - predicted_cost as i64;
        let error_percent = if predicted_cost == 0 {
            0
        } else {
            (error * 100) / predicted_cost as i64
        };
        DeviationSection {
            predicted_cost,
            actual_cost,
            error,
            error_percent,
            tolerance,
            within_tolerance: error.unsigned_abs() <= tolerance,
        }
    }
}

/// Per-worker breakdown of a parallel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSection {
    /// Worker index (0-based).
    pub worker: u64,
    /// Partitions the worker claimed from the work queue.
    pub partitions: u64,
    /// Result tuples the worker emitted.
    pub tuples: u64,
    /// Wall-clock from worker start to worker exit, in microseconds
    /// (includes time spent waiting on the work queue, not time spent
    /// handing finished units on).
    pub wall_micros: u64,
    /// Microseconds actually spent joining partitions (build + probe);
    /// `busy_micros / wall_micros` is the worker's utilization.
    pub busy_micros: u64,
}

/// Partition-skew and worker-utilization summary of a parallel execution
/// (\[LM92b\] setting). Estimated cost of partition `i` is `|rᵢ|·|sᵢ|`,
/// the pairwise-candidate count the scheduler sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewSection {
    /// Number of partitions joined.
    pub partitions: u64,
    /// Sum of the per-partition estimated costs `Σ |rᵢ|·|sᵢ|`.
    pub est_cost_total: u64,
    /// Largest single-partition estimated cost `max |rᵢ|·|sᵢ|`.
    pub est_cost_max: u64,
    /// `est_cost_max` as a rounded-down percentage of `est_cost_total` —
    /// 100/partitions for a perfectly balanced workload, approaching 100
    /// under heavy skew.
    pub max_partition_share_percent: u64,
    /// Sum of the workers' `busy_micros`.
    pub busy_micros_total: u64,
    /// Largest single-worker `busy_micros` (the critical path).
    pub busy_micros_max: u64,
    /// `busy_micros_total / (workers × max worker wall_micros)` as a
    /// rounded-down percentage: 100 means no worker ever idled.
    pub utilization_percent: u64,
}

/// Fault-injection accounting for a run executed against a faulty disk
/// (the `faults` schema section, new in version 3). All counters are
/// deltas over the run; `degraded` records how many times the planner
/// fell back to the equal-width plan instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultsSection {
    /// Read attempts that were injected to fail.
    pub injected_read_faults: u64,
    /// Write attempts that were injected to fail.
    pub injected_write_faults: u64,
    /// Writes that reported success but persisted a corrupted page.
    pub torn_writes: u64,
    /// Pages whose checksum did not verify on decode.
    pub checksum_failures: u64,
    /// Retry attempts issued after an injected fault.
    pub retries: u64,
    /// Operations that ultimately succeeded after at least one retry.
    pub recovered: u64,
    /// Operations that exhausted the retry budget and surfaced an error.
    pub exhausted: u64,
    /// Total backoff units accumulated across retries (accounting only —
    /// the simulator never sleeps).
    pub backoff_steps: u64,
    /// Times the run degraded to a fallback plan instead of erroring.
    pub degraded: i64,
}

impl FaultsSection {
    fn to_json(self) -> Json {
        obj(vec![
            (
                "injected_read_faults",
                Json::Int(self.injected_read_faults as i64),
            ),
            (
                "injected_write_faults",
                Json::Int(self.injected_write_faults as i64),
            ),
            ("torn_writes", Json::Int(self.torn_writes as i64)),
            (
                "checksum_failures",
                Json::Int(self.checksum_failures as i64),
            ),
            ("retries", Json::Int(self.retries as i64)),
            ("recovered", Json::Int(self.recovered as i64)),
            ("exhausted", Json::Int(self.exhausted as i64)),
            ("backoff_steps", Json::Int(self.backoff_steps as i64)),
            ("degraded", Json::Int(self.degraded)),
        ])
    }

    fn from_json(j: &Json) -> Result<FaultsSection, ReportError> {
        Ok(FaultsSection {
            injected_read_faults: req_u64(j, "injected_read_faults")?,
            injected_write_faults: req_u64(j, "injected_write_faults")?,
            torn_writes: req_u64(j, "torn_writes")?,
            checksum_failures: req_u64(j, "checksum_failures")?,
            retries: req_u64(j, "retries")?,
            recovered: req_u64(j, "recovered")?,
            exhausted: req_u64(j, "exhausted")?,
            backoff_steps: req_u64(j, "backoff_steps")?,
            degraded: req_i64(j, "degraded")?,
        })
    }
}

/// Per-kernel accounting for executions that pick an intra-partition
/// join kernel per partition (the `kernel` schema section, new in
/// version 4). The gate chooses the sweep kernel on duplicate-heavy
/// partitions and the hash kernel elsewhere; both emit through batched
/// output chunks handed over once per partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSection {
    /// Partitions joined by the hash kernel (hash table build + probe).
    pub hash_partitions: u64,
    /// Partitions joined by the forward-sweep kernel.
    pub sweep_partitions: u64,
    /// Hash-equal candidate pairs the sweep inspected. Every one already
    /// overlaps in time — compare with the `cpu_match_tests` counter,
    /// which includes the hash kernel's temporal rejects.
    pub sweep_comparisons: u64,
    /// Output batches spliced into the result (one per non-empty
    /// partition, instead of one push per tuple).
    pub batches_flushed: u64,
}

impl KernelSection {
    fn to_json(self) -> Json {
        obj(vec![
            ("hash_partitions", Json::Int(self.hash_partitions as i64)),
            ("sweep_partitions", Json::Int(self.sweep_partitions as i64)),
            (
                "sweep_comparisons",
                Json::Int(self.sweep_comparisons as i64),
            ),
            ("batches_flushed", Json::Int(self.batches_flushed as i64)),
        ])
    }

    fn from_json(j: &Json) -> Result<KernelSection, ReportError> {
        Ok(KernelSection {
            hash_partitions: req_u64(j, "hash_partitions")?,
            sweep_partitions: req_u64(j, "sweep_partitions")?,
            sweep_comparisons: req_u64(j, "sweep_comparisons")?,
            batches_flushed: req_u64(j, "batches_flushed")?,
        })
    }
}

/// Multi-query service accounting (the `service` schema section, new in
/// version 5; extended in version 8): admission-controller outcomes and
/// plan-cache behaviour across every request a `JoinService` run
/// processed. All counters are lifetime totals over the service run.
/// `queued` counts requests that were admitted only after blocking on the
/// page pool; `rejected` counts every refusal — oversize, queue-saturated,
/// deadline-shed, and retry-after-shed alike (each refusal is typed at
/// the API layer — the report keeps the sum, with the v8 shed counters
/// breaking out the load-shedding subset).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceSection {
    /// Join requests submitted to the service.
    pub requests: u64,
    /// Requests admitted (immediately or after queueing).
    pub admitted: u64,
    /// Requests that blocked in the admission queue before running.
    pub queued: u64,
    /// Requests refused by the admission controller (oversize or
    /// saturated queue).
    pub rejected: u64,
    /// Admitted requests that completed with a result.
    pub completed: u64,
    /// Admitted requests that failed with a typed join error.
    pub failed: u64,
    /// Plan-cache lookups that reused cached partition boundaries
    /// (skipping Kolmogorov sampling entirely).
    pub cache_hits: u64,
    /// Plan-cache lookups that found no usable entry and planned fresh.
    pub cache_misses: u64,
    /// Cache misses caused by an existing entry whose statistics
    /// fingerprint drifted past the errorSize tolerance (a subset of
    /// `cache_misses`).
    pub cache_invalidations: u64,
    /// Largest number of requests ever simultaneously blocked waiting
    /// for pool pages.
    pub queue_depth_high_water: u64,
    /// Total shared buffer-pool pages the admission controller manages.
    pub pool_pages: u64,
    /// Largest number of pool pages ever simultaneously reserved.
    pub pool_pages_high_water: u64,
    /// Requests submitted at interactive priority (v8).
    pub interactive_requests: u64,
    /// Requests submitted at batch priority (v8).
    pub batch_requests: u64,
    /// Requests submitted at background priority (v8).
    pub background_requests: u64,
    /// Requests shed because their admission deadline expired — before
    /// queueing (observed wait already too long) or while queued (v8; a
    /// subset of `rejected`).
    pub shed_deadline: u64,
    /// Background requests shed with a retry-after hint instead of
    /// queueing (v8; a subset of `rejected`).
    pub shed_retry_after: u64,
    /// Requests served through the streaming API (v8).
    pub streamed_requests: u64,
    /// Non-empty result batches delivered to streaming sinks (v8).
    pub streamed_batches: u64,
    /// Total tuples delivered through streaming sinks (v8).
    pub streamed_tuples: u64,
    /// Relation reads served from the LRU residency cache at zero heap
    /// I/O (v8).
    pub residency_hits: u64,
    /// Relation reads that faulted the table in from the heap (v8).
    pub residency_misses: u64,
    /// Resident relations evicted — LRU pressure or staleness after a
    /// table rewrite (v8).
    pub residency_evictions: u64,
    /// Exponentially-weighted moving average of admission queue wait, in
    /// microseconds — the load-shedding policy's retry-hint input (v8).
    pub queue_wait_ewma_micros: u64,
    /// Queue-wait histogram: admissions per wait bucket, buckets bounded
    /// at 100 µs, 1 ms, 10 ms, 100 ms, 1 s, 10 s, 100 s, +∞ (v8; empty in
    /// pre-v8 documents).
    pub queue_wait_histogram: Vec<u64>,
}

impl ServiceSection {
    fn to_json(&self) -> Json {
        obj(vec![
            ("requests", Json::Int(self.requests as i64)),
            ("admitted", Json::Int(self.admitted as i64)),
            ("queued", Json::Int(self.queued as i64)),
            ("rejected", Json::Int(self.rejected as i64)),
            ("completed", Json::Int(self.completed as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("cache_misses", Json::Int(self.cache_misses as i64)),
            (
                "cache_invalidations",
                Json::Int(self.cache_invalidations as i64),
            ),
            (
                "queue_depth_high_water",
                Json::Int(self.queue_depth_high_water as i64),
            ),
            ("pool_pages", Json::Int(self.pool_pages as i64)),
            (
                "pool_pages_high_water",
                Json::Int(self.pool_pages_high_water as i64),
            ),
            (
                "interactive_requests",
                Json::Int(self.interactive_requests as i64),
            ),
            ("batch_requests", Json::Int(self.batch_requests as i64)),
            (
                "background_requests",
                Json::Int(self.background_requests as i64),
            ),
            ("shed_deadline", Json::Int(self.shed_deadline as i64)),
            ("shed_retry_after", Json::Int(self.shed_retry_after as i64)),
            (
                "streamed_requests",
                Json::Int(self.streamed_requests as i64),
            ),
            ("streamed_batches", Json::Int(self.streamed_batches as i64)),
            ("streamed_tuples", Json::Int(self.streamed_tuples as i64)),
            ("residency_hits", Json::Int(self.residency_hits as i64)),
            ("residency_misses", Json::Int(self.residency_misses as i64)),
            (
                "residency_evictions",
                Json::Int(self.residency_evictions as i64),
            ),
            (
                "queue_wait_ewma_micros",
                Json::Int(self.queue_wait_ewma_micros as i64),
            ),
            (
                "queue_wait_histogram",
                Json::Arr(
                    self.queue_wait_histogram
                        .iter()
                        .map(|&n| Json::Int(n as i64))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<ServiceSection, ReportError> {
        Ok(ServiceSection {
            requests: req_u64(j, "requests")?,
            admitted: req_u64(j, "admitted")?,
            queued: req_u64(j, "queued")?,
            rejected: req_u64(j, "rejected")?,
            completed: req_u64(j, "completed")?,
            failed: req_u64(j, "failed")?,
            cache_hits: req_u64(j, "cache_hits")?,
            cache_misses: req_u64(j, "cache_misses")?,
            cache_invalidations: req_u64(j, "cache_invalidations")?,
            queue_depth_high_water: req_u64(j, "queue_depth_high_water")?,
            pool_pages: req_u64(j, "pool_pages")?,
            pool_pages_high_water: req_u64(j, "pool_pages_high_water")?,
            // v8 fields: absent in v5–v7 documents, which must still parse.
            interactive_requests: opt_u64(j, "interactive_requests"),
            batch_requests: opt_u64(j, "batch_requests"),
            background_requests: opt_u64(j, "background_requests"),
            shed_deadline: opt_u64(j, "shed_deadline"),
            shed_retry_after: opt_u64(j, "shed_retry_after"),
            streamed_requests: opt_u64(j, "streamed_requests"),
            streamed_batches: opt_u64(j, "streamed_batches"),
            streamed_tuples: opt_u64(j, "streamed_tuples"),
            residency_hits: opt_u64(j, "residency_hits"),
            residency_misses: opt_u64(j, "residency_misses"),
            residency_evictions: opt_u64(j, "residency_evictions"),
            queue_wait_ewma_micros: opt_u64(j, "queue_wait_ewma_micros"),
            queue_wait_histogram: j
                .get("queue_wait_histogram")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default(),
        })
    }
}

/// Allen-predicate accounting (the `predicate` schema section, new in
/// version 6): which generalized join predicate the run evaluated, which
/// sweep plan template it compiled to, and the counters of the two
/// predicate execution paths. `filter_checks`/`filter_hits` count the
/// intersection-template filter applied after the key-equality and
/// overlap tests inside the hash/sweep kernels; `merge_pairs_scanned`/
/// `merge_pairs_emitted` count the predicate-aware sort-merge fallback
/// used for sequence/mixed templates. A natural join carries no section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PredicateSection {
    /// Canonical predicate name (`JoinPredicate`'s display form, e.g.
    /// "meets-or-overlaps" or "before-within-3").
    pub predicate: String,
    /// Compiled plan template: "intersection", "sequence", or "mixed".
    pub template: String,
    /// Key-equal candidate pairs the intersection-template filter tested.
    pub filter_checks: u64,
    /// Candidate pairs the filter accepted (result tuples emitted by the
    /// filtered kernels).
    pub filter_hits: u64,
    /// Key-equal candidate pairs the merge fallback scanned.
    pub merge_pairs_scanned: u64,
    /// Pairs the merge fallback emitted.
    pub merge_pairs_emitted: u64,
}

impl PredicateSection {
    fn to_json(&self) -> Json {
        obj(vec![
            ("predicate", Json::Str(self.predicate.clone())),
            ("template", Json::Str(self.template.clone())),
            ("filter_checks", Json::Int(self.filter_checks as i64)),
            ("filter_hits", Json::Int(self.filter_hits as i64)),
            (
                "merge_pairs_scanned",
                Json::Int(self.merge_pairs_scanned as i64),
            ),
            (
                "merge_pairs_emitted",
                Json::Int(self.merge_pairs_emitted as i64),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<PredicateSection, ReportError> {
        Ok(PredicateSection {
            predicate: req_str(j, "predicate")?,
            template: req_str(j, "template")?,
            filter_checks: req_u64(j, "filter_checks")?,
            filter_hits: req_u64(j, "filter_hits")?,
            merge_pairs_scanned: req_u64(j, "merge_pairs_scanned")?,
            merge_pairs_emitted: req_u64(j, "merge_pairs_emitted")?,
        })
    }
}

/// 2D grid-partitioned execution accounting (schema v7): the grid's two
/// axes (key-hash buckets × time ranges), how its cells were populated,
/// how concentrated the estimated work was, the replication overhead
/// (along the time axis only — the key axis never replicates), and how
/// long the scatter/gather coordinator spent blocked on its shard
/// workers. A 1×N shape is the paper's time-only partitioning expressed
/// as a degenerate grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GridSection {
    /// Key-axis bucket count (power of two; 1 = time-only).
    pub key_buckets: u64,
    /// Time-axis partition count.
    pub time_partitions: u64,
    /// Total cells, `key_buckets × time_partitions`.
    pub cells: u64,
    /// Cells holding any estimated work (`|r_c|·|s_c| > 0`).
    pub occupied_cells: u64,
    /// The heaviest cell's share of total estimated work, in percent.
    pub max_cell_share_percent: u64,
    /// Tuple replicas per input tuple, ×100 (100 = no replication).
    /// Identical for every key-axis width: tuples replicate only along
    /// the time axis.
    pub replication_factor_x100: u64,
    /// Wall-clock the coordinator spent waiting for shard workers to
    /// finish, before gathering their outputs in cell order.
    pub coordinator_wait_micros: u64,
}

impl GridSection {
    fn to_json(self) -> Json {
        obj(vec![
            ("key_buckets", Json::Int(self.key_buckets as i64)),
            ("time_partitions", Json::Int(self.time_partitions as i64)),
            ("cells", Json::Int(self.cells as i64)),
            ("occupied_cells", Json::Int(self.occupied_cells as i64)),
            (
                "max_cell_share_percent",
                Json::Int(self.max_cell_share_percent as i64),
            ),
            (
                "replication_factor_x100",
                Json::Int(self.replication_factor_x100 as i64),
            ),
            (
                "coordinator_wait_micros",
                Json::Int(self.coordinator_wait_micros as i64),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<GridSection, ReportError> {
        Ok(GridSection {
            key_buckets: req_u64(j, "key_buckets")?,
            time_partitions: req_u64(j, "time_partitions")?,
            cells: req_u64(j, "cells")?,
            occupied_cells: req_u64(j, "occupied_cells")?,
            max_cell_share_percent: req_u64(j, "max_cell_share_percent")?,
            replication_factor_x100: req_u64(j, "replication_factor_x100")?,
            coordinator_wait_micros: req_u64(j, "coordinator_wait_micros")?,
        })
    }
}

/// Columnar-execution accounting (schema v9): what the struct-of-arrays
/// encode pass and the columnar kernels did, when a run executed on the
/// columnar layout. `encode_micros` is wall-clock profiling (excluded
/// from regression comparison like every `*_micros` key); the other three
/// are deterministic functions of the input. Runs that encode nothing
/// (merge fallbacks, the non-partition disk algorithms) carry no section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnarSection {
    /// Wall-clock microseconds the struct-of-arrays encode pass took
    /// (chronon/hash column extraction + key-dictionary interning).
    pub encode_micros: u64,
    /// LSD radix counting passes actually executed across all sweep-kernel
    /// sorts; passes whose byte is constant across the partition are
    /// skipped and not counted.
    pub radix_passes: u64,
    /// Distinct join keys interned in the dictionary shared by both sides.
    pub dict_size: u64,
    /// Result tuples constructed by the late-materialization pass (equals
    /// the result cardinality: every emitted row-id pair materializes).
    pub materialized_rows: u64,
}

impl ColumnarSection {
    fn to_json(self) -> Json {
        obj(vec![
            ("encode_micros", Json::Int(self.encode_micros as i64)),
            ("radix_passes", Json::Int(self.radix_passes as i64)),
            ("dict_size", Json::Int(self.dict_size as i64)),
            (
                "materialized_rows",
                Json::Int(self.materialized_rows as i64),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<ColumnarSection, ReportError> {
        Ok(ColumnarSection {
            encode_micros: req_u64(j, "encode_micros")?,
            radix_passes: req_u64(j, "radix_passes")?,
            dict_size: req_u64(j, "dict_size")?,
            materialized_rows: req_u64(j, "materialized_rows")?,
        })
    }
}

/// Temporal-operator accounting (schema v10): what the
/// dangling-fragment-tracking sweeps and the aggregation timeline did,
/// when a run evaluated a non-inner member of the operator family
/// (LEFT/FULL outer, semi, anti, aggregate). Every field is a
/// deterministic function of the input, so all of them participate in
/// regression comparison.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OperatorSection {
    /// Canonical string form of the operator (`left`, `full`, `semi`,
    /// `anti`, `aggregate:count`, `aggregate:sum:ATTR`, …).
    pub op: String,
    /// Grid cells that ran a tracked sweep (0 on the nested fallback).
    pub cells: u64,
    /// Worker threads used.
    pub workers: u64,
    /// Key buckets of the operator grid (1 on the fallback).
    pub key_buckets: u64,
    /// Matched pairs logged under the canonical-partition rule.
    pub pairs_logged: u64,
    /// Outer-side dangling fragments emitted before stitching.
    pub outer_fragments: u64,
    /// Inner-side dangling fragments emitted before stitching.
    pub inner_fragments: u64,
    /// Outer fragments merged away at partition boundaries by the
    /// gather-phase stitch.
    pub stitched_outer: u64,
    /// Inner fragments merged away by the gather-phase stitch.
    pub stitched_inner: u64,
    /// Final maximal outer dangling intervals after stitching.
    pub outer_dangling: u64,
    /// Final maximal inner dangling intervals after stitching.
    pub inner_dangling: u64,
    /// Endpoint events in the aggregation timeline index.
    pub timeline_events: u64,
    /// Checkpoints the aggregation timeline index took.
    pub timeline_checkpoints: u64,
    /// Maximal constant segments the aggregation produced.
    pub agg_segments: u64,
    /// Whether the sequence/mixed-template nested fallback ran instead
    /// of the partitioned tracked sweep.
    pub fallback_nested: bool,
}

impl OperatorSection {
    fn to_json(&self) -> Json {
        obj(vec![
            ("op", Json::Str(self.op.clone())),
            ("cells", Json::Int(self.cells as i64)),
            ("workers", Json::Int(self.workers as i64)),
            ("key_buckets", Json::Int(self.key_buckets as i64)),
            ("pairs_logged", Json::Int(self.pairs_logged as i64)),
            ("outer_fragments", Json::Int(self.outer_fragments as i64)),
            ("inner_fragments", Json::Int(self.inner_fragments as i64)),
            ("stitched_outer", Json::Int(self.stitched_outer as i64)),
            ("stitched_inner", Json::Int(self.stitched_inner as i64)),
            ("outer_dangling", Json::Int(self.outer_dangling as i64)),
            ("inner_dangling", Json::Int(self.inner_dangling as i64)),
            ("timeline_events", Json::Int(self.timeline_events as i64)),
            (
                "timeline_checkpoints",
                Json::Int(self.timeline_checkpoints as i64),
            ),
            ("agg_segments", Json::Int(self.agg_segments as i64)),
            ("fallback_nested", Json::Bool(self.fallback_nested)),
        ])
    }

    fn from_json(j: &Json) -> Result<OperatorSection, ReportError> {
        Ok(OperatorSection {
            op: req_str(j, "op")?,
            cells: req_u64(j, "cells")?,
            workers: req_u64(j, "workers")?,
            key_buckets: req_u64(j, "key_buckets")?,
            pairs_logged: req_u64(j, "pairs_logged")?,
            outer_fragments: req_u64(j, "outer_fragments")?,
            inner_fragments: req_u64(j, "inner_fragments")?,
            stitched_outer: req_u64(j, "stitched_outer")?,
            stitched_inner: req_u64(j, "stitched_inner")?,
            outer_dangling: req_u64(j, "outer_dangling")?,
            inner_dangling: req_u64(j, "inner_dangling")?,
            timeline_events: req_u64(j, "timeline_events")?,
            timeline_checkpoints: req_u64(j, "timeline_checkpoints")?,
            agg_segments: req_u64(j, "agg_segments")?,
            fallback_nested: req_bool(j, "fallback_nested")?,
        })
    }
}

/// The unified execution report: one value describing everything a run
/// did, predicted, and measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Algorithm that produced the run ("partition", "sort-merge", …).
    pub algorithm: String,
    /// Configuration the run executed under.
    pub config: ConfigSection,
    /// Result cardinality.
    pub result: ResultSection,
    /// Whole-run I/O.
    pub io: IoSection,
    /// Per-phase breakdown, in execution order.
    pub phases: Vec<PhaseSection>,
    /// Algorithm diagnostics.
    pub counters: Vec<Counter>,
    /// Buffer-pool behaviour, when a pool was involved.
    pub buffer_pool: Option<BufferPoolSection>,
    /// Planner decision and predictions (partition join only).
    pub plan: Option<PlanSection>,
    /// Predicted-vs-actual comparison, when predictions exist.
    pub deviation: Option<DeviationSection>,
    /// Per-worker breakdown of parallel executions.
    pub workers: Vec<WorkerSection>,
    /// Partition-skew / utilization summary of parallel executions.
    pub skew: Option<SkewSection>,
    /// Per-kernel accounting, when the execution gated between
    /// intra-partition join kernels.
    pub kernel: Option<KernelSection>,
    /// Fault-injection accounting, when the run executed under injected
    /// faults (or observed any fault-path activity).
    pub faults: Option<FaultsSection>,
    /// Multi-query service accounting, when the run went through a
    /// `JoinService` (admission controller + plan cache).
    pub service: Option<ServiceSection>,
    /// Allen-predicate accounting, when the run evaluated a generalized
    /// (non-natural) join predicate.
    pub predicate: Option<PredicateSection>,
    /// 2D grid-partitioning accounting, when the run executed on the
    /// sharded (key × time) grid executor.
    pub grid: Option<GridSection>,
    /// Columnar-layout accounting, when the run encoded its join sides
    /// struct-of-arrays and ran the columnar kernels.
    pub columnar: Option<ColumnarSection>,
    /// Temporal-operator accounting, when the run evaluated a non-inner
    /// member of the operator family (outer/semi/anti/aggregate).
    pub operator: Option<OperatorSection>,
}

impl ExecutionReport {
    /// Looks up a diagnostic counter by name.
    pub fn counter(&self, name: &str) -> Option<i64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseSection> {
        self.phases.iter().find(|p| p.name == name)
    }

    // ---- JSON ----------------------------------------------------------------

    /// Serializes to the documented JSON schema (`docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("algorithm", Json::Str(self.algorithm.clone())),
            (
                "config",
                obj(vec![
                    ("buffer_pages", Json::Int(self.config.buffer_pages as i64)),
                    ("random_cost", Json::Int(self.config.random_cost as i64)),
                    ("seed", Json::Int(self.config.seed as i64)),
                ]),
            ),
            (
                "result",
                obj(vec![
                    ("tuples", Json::Int(self.result.tuples as i64)),
                    ("pages", Json::Int(self.result.pages as i64)),
                ]),
            ),
            ("io", self.io.to_json()),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            let mut ph = vec![
                                ("name", Json::Str(p.name.clone())),
                                ("wall_micros", Json::Int(p.wall_micros as i64)),
                                ("io", p.io.to_json()),
                            ];
                            if let Some(pred) = p.predicted_cost {
                                ph.push(("predicted_cost", Json::Int(pred as i64)));
                            }
                            obj(ph)
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("name", Json::Str(c.name.clone())),
                                ("value", Json::Int(c.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(bp) = self.buffer_pool {
            pairs.push((
                "buffer_pool",
                obj(vec![
                    ("hits", Json::Int(bp.hits as i64)),
                    ("misses", Json::Int(bp.misses as i64)),
                    ("evictions", Json::Int(bp.evictions as i64)),
                ]),
            ));
        }
        if let Some(plan) = &self.plan {
            pairs.push((
                "plan",
                obj(vec![
                    ("part_size", Json::Int(plan.part_size as i64)),
                    ("num_partitions", Json::Int(plan.num_partitions as i64)),
                    ("error_size", Json::Int(plan.error_size as i64)),
                    ("samples_drawn", Json::Int(plan.samples_drawn as i64)),
                    ("est_cache_pages", Json::Int(plan.est_cache_pages as i64)),
                    (
                        "predicted",
                        obj(vec![
                            ("c_sample", Json::Int(plan.predicted.c_sample as i64)),
                            ("c_join", Json::Int(plan.predicted.c_join as i64)),
                            ("c_cache", Json::Int(plan.predicted.c_cache as i64)),
                            (
                                "c_partition_seeks",
                                Json::Int(plan.predicted.c_partition_seeks as i64),
                            ),
                            ("total", Json::Int(plan.predicted.total as i64)),
                        ]),
                    ),
                    (
                        "candidates",
                        Json::Arr(
                            plan.candidates
                                .iter()
                                .map(|c| {
                                    obj(vec![
                                        ("part_size", Json::Int(c.part_size as i64)),
                                        ("num_partitions", Json::Int(c.num_partitions as i64)),
                                        ("samples_required", Json::Int(c.samples_required as i64)),
                                        ("c_sample", Json::Int(c.c_sample as i64)),
                                        ("c_join", Json::Int(c.c_join as i64)),
                                        ("c_cache", Json::Int(c.c_cache as i64)),
                                        (
                                            "c_partition_seeks",
                                            Json::Int(c.c_partition_seeks as i64),
                                        ),
                                        ("total", Json::Int(c.total as i64)),
                                        ("chosen", Json::Bool(c.chosen)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(d) = self.deviation {
            pairs.push((
                "deviation",
                obj(vec![
                    ("predicted_cost", Json::Int(d.predicted_cost as i64)),
                    ("actual_cost", Json::Int(d.actual_cost as i64)),
                    ("error", Json::Int(d.error)),
                    ("error_percent", Json::Int(d.error_percent)),
                    ("tolerance", Json::Int(d.tolerance as i64)),
                    ("within_tolerance", Json::Bool(d.within_tolerance)),
                ]),
            ));
        }
        if !self.workers.is_empty() {
            pairs.push((
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            obj(vec![
                                ("worker", Json::Int(w.worker as i64)),
                                ("partitions", Json::Int(w.partitions as i64)),
                                ("tuples", Json::Int(w.tuples as i64)),
                                ("wall_micros", Json::Int(w.wall_micros as i64)),
                                ("busy_micros", Json::Int(w.busy_micros as i64)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(sk) = self.skew {
            pairs.push((
                "skew",
                obj(vec![
                    ("partitions", Json::Int(sk.partitions as i64)),
                    ("est_cost_total", Json::Int(sk.est_cost_total as i64)),
                    ("est_cost_max", Json::Int(sk.est_cost_max as i64)),
                    (
                        "max_partition_share_percent",
                        Json::Int(sk.max_partition_share_percent as i64),
                    ),
                    ("busy_micros_total", Json::Int(sk.busy_micros_total as i64)),
                    ("busy_micros_max", Json::Int(sk.busy_micros_max as i64)),
                    (
                        "utilization_percent",
                        Json::Int(sk.utilization_percent as i64),
                    ),
                ]),
            ));
        }
        if let Some(k) = self.kernel {
            pairs.push(("kernel", k.to_json()));
        }
        if let Some(fs) = self.faults {
            pairs.push(("faults", fs.to_json()));
        }
        if let Some(sv) = &self.service {
            pairs.push(("service", sv.to_json()));
        }
        if let Some(pd) = &self.predicate {
            pairs.push(("predicate", pd.to_json()));
        }
        if let Some(g) = self.grid {
            pairs.push(("grid", g.to_json()));
        }
        if let Some(c) = self.columnar {
            pairs.push(("columnar", c.to_json()));
        }
        if let Some(o) = &self.operator {
            pairs.push(("operator", o.to_json()));
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes to the documented JSON text format.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Decodes a report from its JSON text form; exact inverse of
    /// [`ExecutionReport::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<ExecutionReport, ReportError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Decodes a report from a parsed JSON value.
    pub fn from_json(j: &Json) -> Result<ExecutionReport, ReportError> {
        let version = req_i64(j, "schema_version")?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(ReportError::Schema(format!(
                "unsupported schema_version {version} (expected 1..={SCHEMA_VERSION})"
            )));
        }
        let config = j.get("config").ok_or_else(|| missing("config"))?;
        let result = j.get("result").ok_or_else(|| missing("result"))?;
        let mut phases = Vec::new();
        for p in req_arr(j, "phases")? {
            phases.push(PhaseSection {
                name: req_str(p, "name")?,
                wall_micros: req_u64(p, "wall_micros")?,
                io: IoSection::from_json(p.get("io").ok_or_else(|| missing("phases[].io"))?)?,
                predicted_cost: match p.get("predicted_cost") {
                    Some(v) => Some(v.as_u64().ok_or_else(|| missing("predicted_cost"))?),
                    None => None,
                },
            });
        }
        let mut counters = Vec::new();
        for c in req_arr(j, "counters")? {
            counters.push(Counter {
                name: req_str(c, "name")?,
                value: req_i64(c, "value")?,
            });
        }
        let buffer_pool = match j.get("buffer_pool") {
            Some(bp) => Some(BufferPoolSection {
                hits: req_u64(bp, "hits")?,
                misses: req_u64(bp, "misses")?,
                evictions: req_u64(bp, "evictions")?,
            }),
            None => None,
        };
        let plan = match j.get("plan") {
            Some(p) => {
                let pred = p
                    .get("predicted")
                    .ok_or_else(|| missing("plan.predicted"))?;
                let mut candidates = Vec::new();
                for c in req_arr(p, "candidates")? {
                    candidates.push(CandidateRow {
                        part_size: req_u64(c, "part_size")?,
                        num_partitions: req_u64(c, "num_partitions")?,
                        samples_required: req_u64(c, "samples_required")?,
                        c_sample: req_u64(c, "c_sample")?,
                        c_join: req_u64(c, "c_join")?,
                        c_cache: req_u64(c, "c_cache")?,
                        c_partition_seeks: req_u64(c, "c_partition_seeks")?,
                        total: req_u64(c, "total")?,
                        chosen: req_bool(c, "chosen")?,
                    });
                }
                Some(PlanSection {
                    part_size: req_u64(p, "part_size")?,
                    num_partitions: req_u64(p, "num_partitions")?,
                    error_size: req_u64(p, "error_size")?,
                    samples_drawn: req_u64(p, "samples_drawn")?,
                    est_cache_pages: req_u64(p, "est_cache_pages")?,
                    predicted: PredictedCost {
                        c_sample: req_u64(pred, "c_sample")?,
                        c_join: req_u64(pred, "c_join")?,
                        c_cache: req_u64(pred, "c_cache")?,
                        c_partition_seeks: req_u64(pred, "c_partition_seeks")?,
                        total: req_u64(pred, "total")?,
                    },
                    candidates,
                })
            }
            None => None,
        };
        let deviation = match j.get("deviation") {
            Some(d) => Some(DeviationSection {
                predicted_cost: req_u64(d, "predicted_cost")?,
                actual_cost: req_u64(d, "actual_cost")?,
                error: req_i64(d, "error")?,
                error_percent: req_i64(d, "error_percent")?,
                tolerance: req_u64(d, "tolerance")?,
                within_tolerance: req_bool(d, "within_tolerance")?,
            }),
            None => None,
        };
        let mut workers = Vec::new();
        if let Some(ws) = j.get("workers").and_then(Json::as_arr) {
            for w in ws {
                workers.push(WorkerSection {
                    worker: req_u64(w, "worker")?,
                    partitions: req_u64(w, "partitions")?,
                    tuples: req_u64(w, "tuples")?,
                    wall_micros: req_u64(w, "wall_micros")?,
                    busy_micros: req_u64(w, "busy_micros")?,
                });
            }
        }
        let skew = match j.get("skew") {
            Some(sk) => Some(SkewSection {
                partitions: req_u64(sk, "partitions")?,
                est_cost_total: req_u64(sk, "est_cost_total")?,
                est_cost_max: req_u64(sk, "est_cost_max")?,
                max_partition_share_percent: req_u64(sk, "max_partition_share_percent")?,
                busy_micros_total: req_u64(sk, "busy_micros_total")?,
                busy_micros_max: req_u64(sk, "busy_micros_max")?,
                utilization_percent: req_u64(sk, "utilization_percent")?,
            }),
            None => None,
        };
        let kernel = match j.get("kernel") {
            Some(k) => Some(KernelSection::from_json(k)?),
            None => None,
        };
        let faults = match j.get("faults") {
            Some(fs) => Some(FaultsSection::from_json(fs)?),
            None => None,
        };
        let service = match j.get("service") {
            Some(sv) => Some(ServiceSection::from_json(sv)?),
            None => None,
        };
        let predicate = match j.get("predicate") {
            Some(pd) => Some(PredicateSection::from_json(pd)?),
            None => None,
        };
        let grid = match j.get("grid") {
            Some(g) => Some(GridSection::from_json(g)?),
            None => None,
        };
        let columnar = match j.get("columnar") {
            Some(c) => Some(ColumnarSection::from_json(c)?),
            None => None,
        };
        let operator = match j.get("operator") {
            Some(o) => Some(OperatorSection::from_json(o)?),
            None => None,
        };
        Ok(ExecutionReport {
            algorithm: req_str(j, "algorithm")?,
            config: ConfigSection {
                buffer_pages: req_u64(config, "buffer_pages")?,
                random_cost: req_u64(config, "random_cost")?,
                seed: req_u64(config, "seed")?,
            },
            result: ResultSection {
                tuples: req_u64(result, "tuples")?,
                pages: req_u64(result, "pages")?,
            },
            io: IoSection::from_json(j.get("io").ok_or_else(|| missing("io"))?)?,
            phases,
            counters,
            buffer_pool,
            plan,
            deviation,
            workers,
            skew,
            kernel,
            faults,
            service,
            predicate,
            grid,
            columnar,
            operator,
        })
    }

    // ---- explain rendering -----------------------------------------------------

    /// Renders the human-readable explain output: configuration, the
    /// per-phase cost table (with a predicted-vs-actual deviation column
    /// where the planner made predictions), planner decision, candidate
    /// table, deviation summary, and worker breakdown.
    pub fn render_explain(&self) -> String {
        let mut out = String::new();
        let p = |out: &mut String, line: &str| {
            out.push_str(line);
            out.push('\n');
        };

        p(
            &mut out,
            &format!("{} join — execution report", self.algorithm),
        );
        p(
            &mut out,
            &format!(
                "  config: {} buffer pages, {}:1 random:sequential, seed {:#x}",
                self.config.buffer_pages, self.config.random_cost, self.config.seed
            ),
        );
        p(
            &mut out,
            &format!(
                "  result: {} tuples ({} pages, cost-excluded)",
                self.result.tuples, self.result.pages
            ),
        );
        out.push('\n');

        // Per-phase cost table.
        let mut rows: Vec<[String; 8]> = Vec::new();
        for ph in &self.phases {
            rows.push([
                ph.name.clone(),
                ph.wall_micros.to_string(),
                ph.io.random_reads.to_string(),
                ph.io.seq_reads.to_string(),
                ph.io.random_writes.to_string(),
                ph.io.seq_writes.to_string(),
                ph.io.cost.to_string(),
                match ph.predicted_cost {
                    Some(pred) => {
                        format!("{} ({:+})", pred, ph.io.cost as i64 - pred as i64)
                    }
                    None => "—".to_string(),
                },
            ]);
        }
        rows.push([
            "total".into(),
            self.phases
                .iter()
                .map(|p| p.wall_micros)
                .sum::<u64>()
                .to_string(),
            self.io.random_reads.to_string(),
            self.io.seq_reads.to_string(),
            self.io.random_writes.to_string(),
            self.io.seq_writes.to_string(),
            self.io.cost.to_string(),
            "".into(),
        ]);
        render_table(
            &mut out,
            &[
                "phase",
                "wall µs",
                "rnd rd",
                "seq rd",
                "rnd wr",
                "seq wr",
                "cost",
                "predicted (dev)",
            ],
            &rows,
        );

        if let Some(bp) = self.buffer_pool {
            p(
                &mut out,
                &format!(
                    "\n  buffer pool: {} hits / {} misses / {} evictions",
                    bp.hits, bp.misses, bp.evictions
                ),
            );
        }

        if !self.counters.is_empty() {
            p(&mut out, "\n  counters:");
            for c in &self.counters {
                p(&mut out, &format!("    {:<24} {}", c.name, c.value));
            }
        }

        if let Some(plan) = &self.plan {
            p(
                &mut out,
                &format!(
                    "\n  plan: partSize {} pages → {} partitions, errorSize {}, {} samples drawn, ≈{} cache pages",
                    plan.part_size,
                    plan.num_partitions,
                    plan.error_size,
                    plan.samples_drawn,
                    plan.est_cache_pages
                ),
            );
            if !plan.candidates.is_empty() {
                p(
                    &mut out,
                    "  candidate table (planner objective, Figure 10):",
                );
                let rows: Vec<[String; 8]> = plan
                    .candidates
                    .iter()
                    .map(|c| {
                        [
                            format!("{}{}", if c.chosen { "*" } else { " " }, c.part_size),
                            c.num_partitions.to_string(),
                            c.samples_required.to_string(),
                            c.c_sample.to_string(),
                            c.c_join.to_string(),
                            c.c_cache.to_string(),
                            c.c_partition_seeks.to_string(),
                            c.total.to_string(),
                        ]
                    })
                    .collect();
                render_table(
                    &mut out,
                    &[
                        "partSize", "parts", "m", "C_sample", "C_join", "C_cache", "C_seeks",
                        "total",
                    ],
                    &rows,
                );
            }
        }

        if let Some(d) = self.deviation {
            p(&mut out, "\n  predicted vs actual (modelled phases):");
            p(
                &mut out,
                &format!("    predicted cost  {}", d.predicted_cost),
            );
            p(&mut out, &format!("    actual cost     {}", d.actual_cost));
            p(
                &mut out,
                &format!(
                    "    deviation       {:+} ({:+}%) — {} errorSize tolerance of {}",
                    d.error,
                    d.error_percent,
                    if d.within_tolerance {
                        "within"
                    } else {
                        "OUTSIDE"
                    },
                    d.tolerance
                ),
            );
        }

        if !self.workers.is_empty() {
            p(&mut out, "\n  workers:");
            let rows: Vec<[String; 6]> = self
                .workers
                .iter()
                .map(|w| {
                    let util = (w.busy_micros * 100)
                        .checked_div(w.wall_micros)
                        .unwrap_or(100);
                    [
                        w.worker.to_string(),
                        w.partitions.to_string(),
                        w.tuples.to_string(),
                        w.wall_micros.to_string(),
                        w.busy_micros.to_string(),
                        format!("{util}%"),
                    ]
                })
                .collect();
            render_table(
                &mut out,
                &["worker", "parts", "tuples", "wall µs", "busy µs", "util"],
                &rows,
            );
        }

        if let Some(k) = self.kernel {
            p(&mut out, "\n  kernel:");
            p(
                &mut out,
                &format!(
                    "    partitions: {} hash / {} sweep",
                    k.hash_partitions, k.sweep_partitions
                ),
            );
            p(
                &mut out,
                &format!(
                    "    sweep comparisons: {} (all time-overlapping), {} output batches flushed",
                    k.sweep_comparisons, k.batches_flushed
                ),
            );
        }

        if let Some(pd) = &self.predicate {
            p(&mut out, "\n  predicate:");
            p(
                &mut out,
                &format!("    {} (template: {})", pd.predicate, pd.template),
            );
            p(
                &mut out,
                &format!(
                    "    kernel filter: {} hits / {} checks",
                    pd.filter_hits, pd.filter_checks
                ),
            );
            p(
                &mut out,
                &format!(
                    "    merge fallback: {} emitted / {} pairs scanned",
                    pd.merge_pairs_emitted, pd.merge_pairs_scanned
                ),
            );
        }

        if let Some(fs) = self.faults {
            p(&mut out, "\n  faults:");
            p(
                &mut out,
                &format!(
                    "    injected: {} read / {} write, {} torn writes, {} checksum failures",
                    fs.injected_read_faults,
                    fs.injected_write_faults,
                    fs.torn_writes,
                    fs.checksum_failures
                ),
            );
            p(
                &mut out,
                &format!(
                    "    retries: {} ({} recovered, {} exhausted, {} backoff steps)",
                    fs.retries, fs.recovered, fs.exhausted, fs.backoff_steps
                ),
            );
            p(&mut out, &format!("    degraded plans: {}", fs.degraded));
        }

        if let Some(sv) = &self.service {
            p(&mut out, "\n  service:");
            p(
                &mut out,
                &format!(
                    "    requests: {} ({} admitted, {} queued, {} rejected)",
                    sv.requests, sv.admitted, sv.queued, sv.rejected
                ),
            );
            p(
                &mut out,
                &format!(
                    "    priorities: {} interactive / {} batch / {} background",
                    sv.interactive_requests, sv.batch_requests, sv.background_requests
                ),
            );
            p(
                &mut out,
                &format!(
                    "    outcomes: {} completed, {} failed",
                    sv.completed, sv.failed
                ),
            );
            p(
                &mut out,
                &format!(
                    "    shed: {} deadline, {} retry-after",
                    sv.shed_deadline, sv.shed_retry_after
                ),
            );
            p(
                &mut out,
                &format!(
                    "    plan cache: {} hits / {} misses ({} invalidations)",
                    sv.cache_hits, sv.cache_misses, sv.cache_invalidations
                ),
            );
            p(
                &mut out,
                &format!(
                    "    residency: {} hits / {} misses ({} evictions)",
                    sv.residency_hits, sv.residency_misses, sv.residency_evictions
                ),
            );
            p(
                &mut out,
                &format!(
                    "    streamed: {} requests, {} batches, {} tuples",
                    sv.streamed_requests, sv.streamed_batches, sv.streamed_tuples
                ),
            );
            p(
                &mut out,
                &format!(
                    "    pool: {} pages, high water {} pages / {} queued requests",
                    sv.pool_pages, sv.pool_pages_high_water, sv.queue_depth_high_water
                ),
            );
            if !sv.queue_wait_histogram.is_empty() {
                let buckets: Vec<String> = sv
                    .queue_wait_histogram
                    .iter()
                    .map(|n| n.to_string())
                    .collect();
                p(
                    &mut out,
                    &format!(
                        "    queue wait: ewma {} µs, histogram [{}]",
                        sv.queue_wait_ewma_micros,
                        buckets.join(" ")
                    ),
                );
            }
        }

        if let Some(sk) = self.skew {
            p(&mut out, "\n  skew:");
            p(
                &mut out,
                &format!(
                    "    est cost (|rᵢ|·|sᵢ|): total {}, max {} ({}% in the heaviest of {} partitions)",
                    sk.est_cost_total,
                    sk.est_cost_max,
                    sk.max_partition_share_percent,
                    sk.partitions
                ),
            );
            p(
                &mut out,
                &format!(
                    "    busy µs: total {}, max {} — utilization {}%",
                    sk.busy_micros_total, sk.busy_micros_max, sk.utilization_percent
                ),
            );
        }

        if let Some(g) = self.grid {
            p(&mut out, "\n  grid:");
            p(
                &mut out,
                &format!(
                    "    shape: {} key buckets × {} time partitions = {} cells ({} occupied)",
                    g.key_buckets, g.time_partitions, g.cells, g.occupied_cells
                ),
            );
            p(
                &mut out,
                &format!(
                    "    heaviest cell: {}% of est work; replication {}.{:02}× (time axis only)",
                    g.max_cell_share_percent,
                    g.replication_factor_x100 / 100,
                    g.replication_factor_x100 % 100
                ),
            );
            p(
                &mut out,
                &format!("    coordinator wait: {} µs", g.coordinator_wait_micros),
            );
        }

        if let Some(c) = self.columnar {
            p(&mut out, "\n  columnar:");
            p(
                &mut out,
                &format!(
                    "    encode: {} µs, {} distinct keys interned",
                    c.encode_micros, c.dict_size
                ),
            );
            p(
                &mut out,
                &format!(
                    "    radix passes: {}, materialized rows: {}",
                    c.radix_passes, c.materialized_rows
                ),
            );
        }

        if let Some(o) = &self.operator {
            p(&mut out, &format!("\n  operator: {}", o.op));
            p(
                &mut out,
                &format!(
                    "    grid: {} cells ({} key buckets), {} workers{}",
                    o.cells,
                    o.key_buckets,
                    o.workers,
                    if o.fallback_nested {
                        " [nested fallback]"
                    } else {
                        ""
                    }
                ),
            );
            p(
                &mut out,
                &format!(
                    "    pairs: {}; dangling outer {} (of {} fragments, {} stitched), inner {} (of {}, {} stitched)",
                    o.pairs_logged,
                    o.outer_dangling,
                    o.outer_fragments,
                    o.stitched_outer,
                    o.inner_dangling,
                    o.inner_fragments,
                    o.stitched_inner
                ),
            );
            if o.timeline_events > 0 || o.agg_segments > 0 {
                p(
                    &mut out,
                    &format!(
                        "    timeline: {} events, {} checkpoints, {} segments",
                        o.timeline_events, o.timeline_checkpoints, o.agg_segments
                    ),
                );
            }
        }

        out
    }
}

fn render_table<const N: usize>(out: &mut String, headers: &[&str; N], rows: &[[String; N]]) {
    let mut widths: [usize; N] = [0; N];
    for (i, h) in headers.iter().enumerate() {
        widths[i] = h.chars().count();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let emit = |out: &mut String, cells: &[String; N], widths: &[usize; N]| {
        out.push_str("   ");
        for (i, cell) in cells.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            if i == 0 {
                // Left-align the label column.
                out.push(' ');
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push_str("  ");
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            }
        }
        out.push('\n');
    };
    let head: [String; N] = std::array::from_fn(|i| headers[i].to_string());
    emit(out, &head, &widths);
    let rule: usize = widths.iter().sum::<usize>() + 2 * (N - 1) + 1;
    out.push_str("   ");
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        emit(out, row, &widths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExecutionReport {
        let io = IoSection {
            random_reads: 10,
            seq_reads: 90,
            random_writes: 5,
            seq_writes: 45,
            total_ios: 150,
            cost: 10 * 5 + 90 + 5 * 5 + 45,
        };
        ExecutionReport {
            algorithm: "partition".into(),
            config: ConfigSection {
                buffer_pages: 256,
                random_cost: 5,
                seed: 0x5eed,
            },
            result: ResultSection {
                tuples: 1234,
                pages: 40,
            },
            io,
            phases: vec![
                PhaseSection {
                    name: "plan".into(),
                    wall_micros: 120,
                    io,
                    predicted_cost: Some(80),
                },
                PhaseSection {
                    name: "partition".into(),
                    wall_micros: 400,
                    io,
                    predicted_cost: None,
                },
                PhaseSection {
                    name: "join".into(),
                    wall_micros: 700,
                    io,
                    predicted_cost: Some(200),
                },
            ],
            counters: vec![
                Counter {
                    name: "num_partitions".into(),
                    value: 17,
                },
                Counter {
                    name: "cpu_probes".into(),
                    value: -1,
                },
            ],
            buffer_pool: Some(BufferPoolSection {
                hits: 7,
                misses: 3,
                evictions: 1,
            }),
            plan: Some(PlanSection {
                part_size: 12,
                num_partitions: 17,
                error_size: 9,
                samples_drawn: 154,
                est_cache_pages: 6,
                predicted: PredictedCost {
                    c_sample: 80,
                    c_join: 200,
                    c_cache: 24,
                    c_partition_seeks: 16,
                    total: 296,
                },
                candidates: vec![CandidateRow {
                    part_size: 12,
                    num_partitions: 17,
                    samples_required: 154,
                    c_sample: 80,
                    c_join: 200,
                    c_cache: 24,
                    c_partition_seeks: 16,
                    total: 296,
                    chosen: true,
                }],
            }),
            deviation: Some(DeviationSection::compute(280, 300, 9 * 17 * 2 * 5)),
            workers: vec![WorkerSection {
                worker: 0,
                partitions: 17,
                tuples: 1234,
                wall_micros: 650,
                busy_micros: 600,
            }],
            skew: Some(SkewSection {
                partitions: 17,
                est_cost_total: 4000,
                est_cost_max: 900,
                max_partition_share_percent: 22,
                busy_micros_total: 600,
                busy_micros_max: 600,
                utilization_percent: 92,
            }),
            kernel: Some(KernelSection {
                hash_partitions: 5,
                sweep_partitions: 12,
                sweep_comparisons: 4321,
                batches_flushed: 17,
            }),
            faults: Some(FaultsSection {
                injected_read_faults: 4,
                injected_write_faults: 2,
                torn_writes: 1,
                checksum_failures: 1,
                retries: 5,
                recovered: 5,
                exhausted: 1,
                backoff_steps: 9,
                degraded: 1,
            }),
            service: Some(ServiceSection {
                requests: 24,
                admitted: 21,
                queued: 6,
                rejected: 3,
                completed: 20,
                failed: 1,
                cache_hits: 15,
                cache_misses: 5,
                cache_invalidations: 2,
                queue_depth_high_water: 4,
                pool_pages: 512,
                pool_pages_high_water: 480,
                interactive_requests: 8,
                batch_requests: 14,
                background_requests: 2,
                shed_deadline: 1,
                shed_retry_after: 2,
                streamed_requests: 3,
                streamed_batches: 40,
                streamed_tuples: 9000,
                residency_hits: 30,
                residency_misses: 12,
                residency_evictions: 4,
                queue_wait_ewma_micros: 350,
                queue_wait_histogram: vec![15, 4, 2, 0, 0, 0, 0, 0],
            }),
            predicate: Some(PredicateSection {
                predicate: "meets-or-overlaps".into(),
                template: "intersection".into(),
                filter_checks: 4321,
                filter_hits: 1234,
                merge_pairs_scanned: 0,
                merge_pairs_emitted: 0,
            }),
            grid: Some(GridSection {
                key_buckets: 4,
                time_partitions: 17,
                cells: 68,
                occupied_cells: 61,
                max_cell_share_percent: 9,
                replication_factor_x100: 112,
                coordinator_wait_micros: 640,
            }),
            columnar: Some(ColumnarSection {
                encode_micros: 210,
                radix_passes: 34,
                dict_size: 6,
                materialized_rows: 1234,
            }),
            operator: Some(OperatorSection {
                op: "full".into(),
                cells: 68,
                workers: 4,
                key_buckets: 4,
                pairs_logged: 1234,
                outer_fragments: 90,
                inner_fragments: 40,
                stitched_outer: 12,
                stitched_inner: 3,
                outer_dangling: 78,
                inner_dangling: 37,
                timeline_events: 0,
                timeline_checkpoints: 0,
                agg_segments: 0,
                fallback_nested: false,
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = ExecutionReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn optional_sections_round_trip_when_absent() {
        let mut report = sample_report();
        report.plan = None;
        report.deviation = None;
        report.buffer_pool = None;
        report.workers.clear();
        report.skew = None;
        report.kernel = None;
        report.faults = None;
        report.service = None;
        report.predicate = None;
        report.grid = None;
        report.columnar = None;
        report.operator = None;
        let back = ExecutionReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
        assert!(!report.to_json_string().contains("\"plan\":"));
        assert!(!report.to_json_string().contains("\"kernel\":"));
        assert!(!report.to_json_string().contains("\"faults\":"));
        assert!(!report.to_json_string().contains("\"service\":"));
        assert!(!report.to_json_string().contains("\"predicate\":"));
        assert!(!report.to_json_string().contains("\"grid\":"));
        assert!(!report.to_json_string().contains("\"columnar\":"));
        assert!(!report.to_json_string().contains("\"operator\":"));
    }

    #[test]
    fn newer_version_is_rejected() {
        let text = sample_report().to_json_string().replacen(
            "\"schema_version\": 10",
            "\"schema_version\": 99",
            1,
        );
        assert!(matches!(
            ExecutionReport::from_json_str(&text),
            Err(ReportError::Schema(_))
        ));
    }

    #[test]
    fn older_versions_still_parse() {
        // A v9 (operator-less), a v8 (columnar-less), a v6 (grid-less), a
        // v5 (predicate-less), a v4 (service-less), a v3 (kernel-less) and
        // a v1 (sections-less) document must all decode: every post-v1
        // addition is an optional section.
        let mut report = sample_report();
        report.operator = None;
        let v9 =
            report
                .to_json_string()
                .replacen("\"schema_version\": 10", "\"schema_version\": 9", 1);
        let back = ExecutionReport::from_json_str(&v9).unwrap();
        assert_eq!(back.operator, None);
        assert_eq!(back.columnar, report.columnar);

        report.columnar = None;
        let v8 =
            report
                .to_json_string()
                .replacen("\"schema_version\": 10", "\"schema_version\": 8", 1);
        let back = ExecutionReport::from_json_str(&v8).unwrap();
        assert_eq!(back.columnar, None);
        assert_eq!(back.grid, report.grid);

        report.grid = None;
        let v6 =
            report
                .to_json_string()
                .replacen("\"schema_version\": 10", "\"schema_version\": 6", 1);
        let back = ExecutionReport::from_json_str(&v6).unwrap();
        assert_eq!(back.grid, None);
        assert_eq!(back.predicate, report.predicate);

        report.predicate = None;
        let v5 =
            report
                .to_json_string()
                .replacen("\"schema_version\": 10", "\"schema_version\": 5", 1);
        let back = ExecutionReport::from_json_str(&v5).unwrap();
        assert_eq!(back.predicate, None);
        assert_eq!(back.service, report.service);

        report.service = None;
        let v4 =
            report
                .to_json_string()
                .replacen("\"schema_version\": 10", "\"schema_version\": 4", 1);
        let back = ExecutionReport::from_json_str(&v4).unwrap();
        assert_eq!(back.service, None);
        assert_eq!(back.kernel, report.kernel);

        report.kernel = None;
        let v3 =
            report
                .to_json_string()
                .replacen("\"schema_version\": 10", "\"schema_version\": 3", 1);
        let back = ExecutionReport::from_json_str(&v3).unwrap();
        assert_eq!(back.algorithm, report.algorithm);
        assert_eq!(back.kernel, None);
        assert_eq!(back.faults, report.faults);

        report.workers.clear();
        report.skew = None;
        report.faults = None;
        report.plan = None;
        report.deviation = None;
        report.buffer_pool = None;
        let v1 =
            report
                .to_json_string()
                .replacen("\"schema_version\": 10", "\"schema_version\": 1", 1);
        let back = ExecutionReport::from_json_str(&v1).unwrap();
        assert_eq!(back.result, report.result);
        assert!(matches!(
            ExecutionReport::from_json_str(&v1.replacen(
                "\"schema_version\": 1",
                "\"schema_version\": 0",
                1
            )),
            Err(ReportError::Schema(_))
        ));
    }

    #[test]
    fn pre_v8_service_sections_decode_with_zeroed_v8_fields() {
        // A v5–v7 document carries a service section without any of the
        // v8 fields; they must decode as zero / empty, not as an error.
        let mut report = sample_report();
        let stripped = ServiceSection {
            interactive_requests: 0,
            batch_requests: 0,
            background_requests: 0,
            shed_deadline: 0,
            shed_retry_after: 0,
            streamed_requests: 0,
            streamed_batches: 0,
            streamed_tuples: 0,
            residency_hits: 0,
            residency_misses: 0,
            residency_evictions: 0,
            queue_wait_ewma_micros: 0,
            queue_wait_histogram: Vec::new(),
            ..report.service.clone().unwrap()
        };
        let v8_fields = [
            "interactive_requests",
            "batch_requests",
            "background_requests",
            "shed_deadline",
            "shed_retry_after",
            "streamed_requests",
            "streamed_batches",
            "streamed_tuples",
            "residency_hits",
            "residency_misses",
            "residency_evictions",
            "queue_wait_ewma_micros",
            "queue_wait_histogram",
        ];
        let mut doc = report.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (key, value) in pairs.iter_mut() {
                if key == "schema_version" {
                    *value = Json::Int(7);
                }
                if key == "service" {
                    if let Json::Obj(svc) = value {
                        svc.retain(|(k, _)| !v8_fields.contains(&k.as_str()));
                    }
                }
            }
        }
        let back = ExecutionReport::from_json_str(&doc.to_pretty()).unwrap();
        report.service = Some(stripped);
        assert_eq!(back.service, report.service);
    }

    #[test]
    fn missing_field_is_rejected() {
        let text = sample_report()
            .to_json_string()
            .replacen("\"algorithm\"", "\"algo\"", 1);
        assert!(ExecutionReport::from_json_str(&text).is_err());
    }

    #[test]
    fn deviation_math() {
        let d = DeviationSection::compute(100, 130, 50);
        assert_eq!(d.error, 30);
        assert_eq!(d.error_percent, 30);
        assert!(d.within_tolerance);
        let d = DeviationSection::compute(100, 20, 50);
        assert_eq!(d.error, -80);
        assert!(!d.within_tolerance);
        let d = DeviationSection::compute(0, 5, 10);
        assert_eq!(d.error_percent, 0);
        assert!(d.within_tolerance);
    }

    #[test]
    fn explain_contains_the_load_bearing_rows() {
        let text = sample_report().render_explain();
        for needle in [
            "partition join — execution report",
            "plan",
            "predicted (dev)",
            "total",
            "candidate table",
            "predicted vs actual",
            "within",
            "buffer pool: 7 hits / 3 misses / 1 evictions",
            "workers:",
            "busy µs",
            "skew:",
            "utilization 92%",
            "kernel:",
            "partitions: 5 hash / 12 sweep",
            "sweep comparisons: 4321 (all time-overlapping), 17 output batches flushed",
            "faults:",
            "injected: 4 read / 2 write, 1 torn writes, 1 checksum failures",
            "retries: 5 (5 recovered, 1 exhausted, 9 backoff steps)",
            "degraded plans: 1",
            "service:",
            "requests: 24 (21 admitted, 6 queued, 3 rejected)",
            "priorities: 8 interactive / 14 batch / 2 background",
            "shed: 1 deadline, 2 retry-after",
            "plan cache: 15 hits / 5 misses (2 invalidations)",
            "residency: 30 hits / 12 misses (4 evictions)",
            "streamed: 3 requests, 40 batches, 9000 tuples",
            "pool: 512 pages, high water 480 pages / 4 queued requests",
            "queue wait: ewma 350 µs, histogram [15 4 2 0 0 0 0 0]",
            "predicate:",
            "meets-or-overlaps (template: intersection)",
            "kernel filter: 1234 hits / 4321 checks",
            "merge fallback: 0 emitted / 0 pairs scanned",
            "grid:",
            "shape: 4 key buckets × 17 time partitions = 68 cells (61 occupied)",
            "heaviest cell: 9% of est work; replication 1.12× (time axis only)",
            "coordinator wait: 640 µs",
            "columnar:",
            "encode: 210 µs, 6 distinct keys interned",
            "radix passes: 34, materialized rows: 1234",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn accessors_find_phases_and_counters() {
        let r = sample_report();
        assert_eq!(r.counter("num_partitions"), Some(17));
        assert_eq!(r.counter("nope"), None);
        assert_eq!(r.phase("join").unwrap().predicted_cost, Some(200));
    }
}
