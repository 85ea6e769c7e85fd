//! # vtjoin-engine — a small valid-time database layer
//!
//! Integration layer over the substrate crates, covering what the paper
//! positions around the join algorithm itself:
//!
//! * [`database`] — a catalog of named valid-time relations stored as heap
//!   files on one simulated disk;
//! * [`planner`] — cost-based algorithm selection between nested-loop,
//!   sort-merge, and partition join using the analytic models of
//!   `vtjoin_join::cost`;
//! * [`view`] — **incrementally maintained** materialized valid-time join
//!   views, the application §3.1 and §5 motivate (and the reason the paper
//!   stores tuples in their *last* overlapping partition: append-only
//!   updates arrive at the end of the time-line, where no migrated tuples
//!   ever reach, so an append touches exactly one partition join);
//! * [`query`] — a small declarative query layer: table scans and planned
//!   joins piped through filters, projections, windows, timeslices, and
//!   coalescing;
//! * [`parallel`] — a multi-threaded partition join over replicated
//!   partitions, the Leung–Muntz multiprocessor setting (\[LM92b\]) as an
//!   in-memory ablation;
//! * [`operator`] — the production executor for the wider §4.1 operator
//!   family (outer/semi/anti joins and temporal aggregation), running
//!   dangling-fragment-tracking sweeps over the same partition grid;
//! * [`service`] — a concurrent multi-query join service: admission
//!   control over a shared page pool and a statistics-fingerprinted plan
//!   cache that reuses partition boundaries across requests, skipping the
//!   paper's per-join Kolmogorov sampling when relation statistics stay
//!   within the plan's own `errorSize` slack.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod database;
pub mod operator;
pub mod parallel;
pub mod planner;
pub mod query;
pub mod service;
pub mod view;

pub use database::{Database, TableStats};
pub use operator::{operator_execution_report, operator_join, OperatorCounters};
pub use parallel::{
    grid_execution_report_pred, grid_execution_report_sharded, grid_execution_report_with,
    grid_join_streamed, grid_partition_join, grid_partition_join_pred, grid_partition_join_with,
    parallel_execution_report, parallel_execution_report_pred, parallel_execution_report_with,
    parallel_partition_join, parallel_partition_join_naive, parallel_partition_join_pred,
    parallel_partition_join_reported, parallel_partition_join_with, StreamSummary,
};
pub use planner::{choose_algorithm, partition_feasible, Algorithm};
pub use query::{Predicate, Query};
pub use service::{
    Admission, JoinResponse, JoinService, PlanOutcome, Priority, Rejected, ServiceConfig,
    ServiceError, StatsFingerprint, StreamedResponse, SubmitOptions, WAIT_HIST_BOUNDS_MICROS,
    WAIT_HIST_BUCKETS,
};
pub use view::MaterializedVtJoin;
