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
//!
//! Each section is declared once, through `section!`: the struct's field
//! list is also its JSON object's key list, in order, and the macro
//! derives the encoder and the strict decoder from it.

use crate::json::{Json, JsonError};
use std::fmt;
use vtjoin_storage::{CostRatio, IoStats};

/// Version stamped into every serialized report as `schema_version`.
/// [`ExecutionReport::from_json`] reads this version only: a document
/// of any other version, or one that lacks or mistypes any field of it,
/// is a [`ReportError::Schema`].
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

fn missing(path: &str) -> ReportError {
    ReportError::Schema(format!("missing or mistyped field '{path}'"))
}

/// One field's value in JSON. A failed decode returns the path below the
/// value to the offending field (empty when the value itself is wrong).
trait Field: Sized {
    fn encode(&self) -> Json;
    fn decode(j: &Json) -> Result<Self, String>;
    /// Whether the field's key is left out of its object.
    fn omitted(&self) -> bool {
        false
    }
    /// What an absent key decodes to; `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

impl Field for u64 {
    fn encode(&self) -> Json {
        Json::Int(*self as i64)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        j.as_u64().ok_or_else(String::new)
    }
}

impl Field for i64 {
    fn encode(&self) -> Json {
        Json::Int(*self)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        j.as_i64().ok_or_else(String::new)
    }
}

impl Field for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        j.as_bool().ok_or_else(String::new)
    }
}

impl Field for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(j: &Json) -> Result<Self, String> {
        j.as_str().map(str::to_owned).ok_or_else(String::new)
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Field::encode).collect())
    }
    fn decode(j: &Json) -> Result<Self, String> {
        let items = j.as_arr().ok_or_else(String::new)?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| T::decode(v).map_err(|p| within(&format!("[{i}]"), p)))
            .collect()
    }
}

/// An optional field is omitted when `None` and decodes as `None` when
/// absent; a present key must hold a valid `T` (`null` is mistyped).
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::encode)
    }
    fn decode(j: &Json) -> Result<Self, String> {
        T::decode(j).map(Some)
    }
    fn omitted(&self) -> bool {
        self.is_none()
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// Prefixes `key` to the path `below` it.
fn within(key: &str, below: String) -> String {
    match below.chars().next() {
        None => key.to_owned(),
        Some('[') => format!("{key}{below}"),
        Some(_) => format!("{key}.{below}"),
    }
}

/// Decodes the field at `key` of object `j`; `absent` is what a missing
/// key decodes to.
fn field<T: Field>(j: &Json, key: &str, absent: Option<T>) -> Result<T, String> {
    match j.get(key) {
        Some(v) => T::decode(v).map_err(|p| within(key, p)),
        None => absent.ok_or_else(|| key.to_owned()),
    }
}

/// Per-field overrides of the type's rule: `[omit_empty]` leaves an
/// empty list out and decodes a missing key as empty.
macro_rules! field_rule {
    (omitted $v:expr) => {
        Field::omitted($v)
    };
    (omitted $v:expr, omit_empty) => {
        $v.is_empty()
    };
    (absent) => {
        Field::absent()
    };
    (absent omit_empty) => {
        Some(Vec::new())
    };
}

/// Declares a report section: the struct as written, and its JSON codec
/// over the same field list (keys named and ordered as the fields).
macro_rules! section {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty $([$rule:ident])?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            fn json_pairs(&self) -> Vec<(String, Json)> {
                let mut pairs = Vec::new();
                $(
                    if !field_rule!(omitted &self.$field $(, $rule)?) {
                        pairs.push((stringify!($field).to_owned(), self.$field.encode()));
                    }
                )*
                pairs
            }
        }

        impl Field for $name {
            fn encode(&self) -> Json {
                Json::Obj(self.json_pairs())
            }
            fn decode(j: &Json) -> Result<Self, String> {
                if !matches!(j, Json::Obj(_)) {
                    return Err(String::new());
                }
                Ok($name {
                    $( $field: field(j, stringify!($field), field_rule!(absent $($rule)?))?, )*
                })
            }
        }
    };
}

section! {
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
}

section! {
    /// Result cardinality. Result writes are cost-excluded (every algorithm
    /// pays them identically), so only sizes are recorded.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ResultSection {
        /// Result tuples emitted.
        pub tuples: u64,
        /// Pages the result relation would occupy.
        pub pages: u64,
    }
}

section! {
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
}

section! {
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
}

section! {
    /// A named algorithm diagnostic (partition count, samples drawn, …).
    /// The full name registry lives in `docs/OBSERVABILITY.md`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Counter {
        /// Stable counter name.
        pub name: String,
        /// Counter value.
        pub value: i64,
    }
}

section! {
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
}

section! {
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
}

section! {
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
}

section! {
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
}

section! {
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

section! {
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
}

section! {
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
}

section! {
    /// Fault-injection accounting for a run executed against a faulty disk
    /// (the `faults` section). All counters are deltas over the run;
    /// `degraded` records how many times the planner fell back to the
    /// equal-width plan instead of failing.
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
}

section! {
    /// Per-kernel accounting for executions that pick an intra-partition
    /// join kernel per partition (the `kernel` section), folded across
    /// cells and workers. The gate chooses the sweep kernel on
    /// duplicate-heavy partitions and the hash kernel elsewhere; both emit
    /// through batched output chunks handed over once per partition.
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
}

impl KernelSection {
    /// Folds another worker's counters in.
    pub fn merge(&mut self, other: KernelSection) {
        self.hash_partitions += other.hash_partitions;
        self.sweep_partitions += other.sweep_partitions;
        self.sweep_comparisons += other.sweep_comparisons;
        self.batches_flushed += other.batches_flushed;
    }
}

section! {
    /// Multi-query service accounting (the `service` section):
    /// admission-controller outcomes and plan-cache behaviour across every
    /// request a `JoinService` run processed. All counters are lifetime
    /// totals over the service run. `queued` counts requests that were
    /// admitted only after blocking on the page pool; `rejected` counts
    /// every refusal — oversize, queue-saturated, deadline-shed, and
    /// retry-after-shed alike (each refusal is typed at the API layer — the
    /// report keeps the sum, with the shed counters breaking out the
    /// load-shedding subset).
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
        /// Requests submitted at interactive priority.
        pub interactive_requests: u64,
        /// Requests submitted at batch priority.
        pub batch_requests: u64,
        /// Requests submitted at background priority.
        pub background_requests: u64,
        /// Requests shed because their admission deadline expired — before
        /// queueing (observed wait already too long) or while queued (a
        /// subset of `rejected`).
        pub shed_deadline: u64,
        /// Background requests shed with a retry-after hint instead of
        /// queueing (a subset of `rejected`).
        pub shed_retry_after: u64,
        /// Requests served through the streaming API.
        pub streamed_requests: u64,
        /// Non-empty result batches delivered to streaming sinks.
        pub streamed_batches: u64,
        /// Total tuples delivered through streaming sinks.
        pub streamed_tuples: u64,
        /// Relation reads served from the LRU residency cache at zero heap
        /// I/O.
        pub residency_hits: u64,
        /// Relation reads that faulted the table in from the heap.
        pub residency_misses: u64,
        /// Resident relations evicted — LRU pressure or staleness after a
        /// table rewrite.
        pub residency_evictions: u64,
        /// Exponentially-weighted moving average of admission queue wait, in
        /// microseconds — the load-shedding policy's retry-hint input.
        pub queue_wait_ewma_micros: u64,
        /// Queue-wait histogram: admissions per wait bucket, buckets bounded
        /// at 100 µs, 1 ms, 10 ms, 100 ms, 1 s, 10 s, 100 s, +∞.
        pub queue_wait_histogram: Vec<u64>,
    }
}

section! {
    /// Allen-predicate accounting (the `predicate` section): which
    /// generalized join predicate the run evaluated, which sweep plan
    /// template it compiled to, and the counters of the two predicate
    /// execution paths. `filter_checks`/`filter_hits` count the
    /// intersection-template filter applied after the key-equality and
    /// overlap tests inside the hash/sweep kernels;
    /// `merge_pairs_scanned`/`merge_pairs_emitted` count the
    /// predicate-aware sort-merge fallback used for sequence/mixed
    /// templates. A natural join carries no section.
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
}

section! {
    /// 2D grid-partitioned execution accounting (the `grid` section): the
    /// grid's two axes (key-hash buckets × time ranges), how its cells were
    /// populated, how concentrated the estimated work was, the replication
    /// overhead (along the time axis only — the key axis never
    /// replicates), and how long the scatter/gather coordinator spent
    /// blocked on its shard workers. A 1×N shape is the paper's time-only
    /// partitioning expressed as a degenerate grid.
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
}

section! {
    /// Columnar-execution accounting (the `columnar` section), folded
    /// across workers: what the struct-of-arrays encode pass and the
    /// columnar kernels did. `encode_micros` is wall-clock profiling
    /// (excluded from regression comparison like every `*_micros` key);
    /// the other three are deterministic functions of the input. Runs that
    /// encode nothing (merge fallbacks, the non-partition disk algorithms)
    /// carry no section.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ColumnarSection {
        /// Wall-clock microseconds the struct-of-arrays encode pass took
        /// (chronon/hash column extraction + key-dictionary interning).
        pub encode_micros: u64,
        /// LSD radix counting passes actually executed across all
        /// sweep-kernel sorts; passes whose byte is constant across the
        /// partition are skipped and not counted, and a run whose sweep
        /// cells all came sorted from a kept cell set counts 0.
        pub radix_passes: u64,
        /// Distinct join keys interned in the dictionary shared by both sides.
        pub dict_size: u64,
        /// Result tuples constructed by the late-materialization pass (equals
        /// the result cardinality: every emitted row-id pair materializes).
        pub materialized_rows: u64,
    }
}

impl ColumnarSection {
    /// Folds another worker's counters in. `dict_size` is a property of
    /// the shared encode, not a per-worker tally, so it takes the max.
    pub fn merge(&mut self, other: ColumnarSection) {
        self.encode_micros += other.encode_micros;
        self.radix_passes += other.radix_passes;
        self.dict_size = self.dict_size.max(other.dict_size);
        self.materialized_rows += other.materialized_rows;
    }
}

section! {
    /// Temporal-operator accounting (the `operator` section): what the
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
}

section! {
    /// The unified execution report: one value describing everything a run
    /// did, predicted, and measured. Its JSON object opens with
    /// `schema_version`, then holds these fields in order; an optional
    /// section is omitted when `None`, and `workers` when empty.
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
        pub workers: Vec<WorkerSection> [omit_empty],
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
        let mut pairs = vec![("schema_version".to_owned(), Json::Int(SCHEMA_VERSION))];
        pairs.extend(self.json_pairs());
        Json::Obj(pairs)
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

    /// Decodes a report from a parsed JSON value. Only
    /// [`SCHEMA_VERSION`] is read, and every field it defines must be
    /// present and well-typed.
    pub fn from_json(j: &Json) -> Result<ExecutionReport, ReportError> {
        let version = field::<i64>(j, "schema_version", None).map_err(|p| missing(&p))?;
        if version != SCHEMA_VERSION {
            return Err(ReportError::Schema(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        <Self as Field>::decode(j).map_err(|p| missing(&p))
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

    /// `sample_report` with every optional section absent.
    fn bare_report() -> ExecutionReport {
        ExecutionReport {
            buffer_pool: None,
            plan: None,
            deviation: None,
            workers: Vec::new(),
            skew: None,
            kernel: None,
            faults: None,
            service: None,
            predicate: None,
            grid: None,
            columnar: None,
            operator: None,
            ..sample_report()
        }
    }

    /// The JSON and explain texts are pinned byte for byte: key order,
    /// omission rules and table layout are part of the format.
    #[test]
    fn json_and_explain_match_the_golden_texts() {
        let cases = [
            (
                sample_report(),
                include_str!("../testdata/report_full.json"),
                include_str!("../testdata/report_full.explain.txt"),
            ),
            (
                bare_report(),
                include_str!("../testdata/report_bare.json"),
                include_str!("../testdata/report_bare.explain.txt"),
            ),
        ];
        for (report, json, explain) in cases {
            assert_eq!(report.to_json_string(), json);
            assert_eq!(report.render_explain(), explain);
        }
    }

    #[test]
    fn optional_sections_round_trip_when_absent() {
        let report = bare_report();
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

    /// Copies of `doc`, one per object key at any depth, with that key
    /// removed (`edit` gives `None`) or its value replaced, each labelled
    /// with the key's path as decode errors spell it.
    fn edits(doc: &Json, path: &str, edit: &dyn Fn(&Json) -> Option<Json>) -> Vec<(String, Json)> {
        let mut out = Vec::new();
        match doc {
            Json::Obj(pairs) => {
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let here = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    let mut copy = pairs.clone();
                    match edit(v) {
                        Some(new) => copy[i].1 = new,
                        None => {
                            copy.remove(i);
                        }
                    }
                    out.push((here.clone(), Json::Obj(copy)));
                    for (p, sub) in edits(v, &here, edit) {
                        let mut copy = pairs.clone();
                        copy[i].1 = sub;
                        out.push((p, Json::Obj(copy)));
                    }
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    for (p, sub) in edits(v, &format!("{path}[{i}]"), edit) {
                        let mut copy = items.clone();
                        copy[i] = sub;
                        out.push((p, Json::Arr(copy)));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// The value at `path` (object keys, or array indices) of `doc`.
    fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |j, step| match j {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("no {step} in {path:?}"),
        })
    }

    /// A current-version document decodes only whole: every key the
    /// report defines is required unless its field is optional, and a
    /// mistyped value anywhere, or another version, is a schema error
    /// naming the field.
    #[test]
    fn decoding_is_strict() {
        let doc = sample_report().to_json();
        let optional = [
            "phases[0].predicted_cost",
            "phases[2].predicted_cost",
            "buffer_pool",
            "plan",
            "deviation",
            "workers",
            "skew",
            "kernel",
            "faults",
            "service",
            "predicate",
            "grid",
            "columnar",
            "operator",
        ];
        let removals = edits(&doc, "", &|_| None);
        assert_eq!(removals.len(), 175);
        for (path, stripped) in removals {
            let got = ExecutionReport::from_json(&stripped);
            if optional.contains(&path.as_str()) {
                // Absent decodes as None / empty and is omitted again.
                assert_eq!(got.unwrap().to_json(), stripped, "{path}");
            } else {
                assert_eq!(got, Err(missing(&path)), "{path} removed");
            }
        }
        for (path, nulled) in edits(&doc, "", &|_| Some(Json::Null)) {
            assert_eq!(ExecutionReport::from_json(&nulled), Err(missing(&path)));
        }

        let cases: [(&[&str], Json, &str); 5] = [
            (&["result", "tuples"], Json::Int(-1), "result.tuples"),
            (
                &["counters", "1", "value"],
                Json::Bool(true),
                "counters[1].value",
            ),
            (
                &["service", "queue_wait_histogram", "2"],
                Json::Str("2".into()),
                "service.queue_wait_histogram[2]",
            ),
            (&["workers"], Json::Obj(Vec::new()), "workers"),
            (&["plan", "candidates"], Json::Int(1), "plan.candidates"),
        ];
        for (path, value, label) in cases {
            let mut bad = doc.clone();
            *at(&mut bad, path) = value;
            assert_eq!(ExecutionReport::from_json(&bad), Err(missing(label)));
        }
        for version in [0, 1, 9, 11, 99] {
            let mut other = doc.clone();
            *at(&mut other, &["schema_version"]) = Json::Int(version);
            assert!(matches!(
                ExecutionReport::from_json(&other),
                Err(ReportError::Schema(m)) if m.contains("unsupported schema_version")
            ));
        }
        assert_eq!(
            ExecutionReport::from_json_str("[]"),
            Err(missing("schema_version"))
        );
    }

    #[test]
    fn merges_sum_per_worker_counters() {
        let mut k = KernelSection {
            hash_partitions: 1,
            sweep_partitions: 2,
            sweep_comparisons: 10,
            batches_flushed: 3,
        };
        k.merge(KernelSection {
            hash_partitions: 4,
            sweep_partitions: 1,
            sweep_comparisons: 5,
            batches_flushed: 2,
        });
        assert_eq!(
            k,
            KernelSection {
                hash_partitions: 5,
                sweep_partitions: 3,
                sweep_comparisons: 15,
                batches_flushed: 5,
            }
        );
        // The dictionary belongs to the shared encode: it takes the max.
        let mut c = ColumnarSection {
            encode_micros: 10,
            radix_passes: 2,
            dict_size: 100,
            materialized_rows: 7,
        };
        c.merge(ColumnarSection {
            encode_micros: 5,
            radix_passes: 3,
            dict_size: 40,
            materialized_rows: 2,
        });
        assert_eq!(
            c,
            ColumnarSection {
                encode_micros: 15,
                radix_passes: 5,
                dict_size: 100,
                materialized_rows: 9,
            }
        );
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
