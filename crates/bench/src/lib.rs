//! # vtjoin-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4):
//!
//! | artifact | harness entry | regenerated by |
//! |---|---|---|
//! | Figure 4 (cost trade-off vs `partSize`) | [`figures::fig4`] | `bench figures fig4` |
//! | Figure 5 (global parameters) | [`figures::fig5_rows`] | `bench figures fig5` |
//! | Figure 6 (cost vs main memory, 3 ratios) | [`figures::fig6`] | `bench figures fig6` |
//! | Figure 7 (cost vs long-lived tuples) | [`figures::fig7`] | `bench figures fig7` |
//! | Figure 8 (memory × long-lived, partition join) | [`figures::fig8`] | `bench figures fig8` |
//!
//! Everything runs at two scales: `full` (the paper's 32 MB / 262,144-tuple
//! relations) and `small` (1/16 scale, for quick runs and criterion).
//!
//! The crate's one binary, `bench`, also runs the extension benchmarks
//! (`bench parallel|kernel|predicate|service|operator`, each a
//! [`harness::Bench`] over one shared command line), the fault sweep
//! (`bench chaos`, [`chaos`]) and the baseline schema check (`bench
//! drift`, [`regress::check_drift`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod chaos;
pub mod figures;
pub mod harness;
pub mod kernel;
pub mod operator;
pub mod parallel;
pub mod predicate;
pub mod regress;
pub mod render;
pub mod service;

pub use harness::{build_pair, run_algorithm, run_algorithm_reported, Algo, Scale};
