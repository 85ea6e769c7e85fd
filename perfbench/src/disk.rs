//! The `paper-disk` workload: the paper's partition join on the simulated
//! disk, priced in the paper's I/O cost.
//!
//! Inputs follow §4.3: one-chronon tuples plus long-lived ones, a join
//! buffer well below |r|, and `IO_ran = 5`. The simulated disk never
//! reclaims pages, so every op's partitions and tuple caches stay
//! committed; a fixed op count keeps that growth the same in every run.

use crate::gen::{self, Keys, Shape, Streams};
use crate::run::Workload;
use crate::trace::{Layers, Trace};
use crate::{check_same, sorted_encoding};
use std::time::Instant;
use vtjoin_core::algebra::natural_join;
use vtjoin_core::Relation;
use vtjoin_join::partition::PlannerOutput;
use vtjoin_join::{JoinConfig, JoinReport, PartitionJoin};
use vtjoin_storage::{HeapFile, IoStats, SharedDisk};
use vtjoin_workload::generate::{inner_schema, outer_schema};

/// Page size, in bytes: small pages give each relation enough pages for
/// a paper-like partitioning at a modest memory cost.
const PAGE_BYTES: usize = 1024;
/// Join buffer, in pages (|r| is about 58 pages: 15 partitions).
const BUFFER_PAGES: u64 = 16;
/// Tuples per relation, and how many of them are long-lived. Small, so
/// that each op adds little to the never-reclaimed disk and a run can
/// afford many ops with a short think time: with 4k tuples the disk
/// growth capped a run at about 340 ops 50 ms apart, and its p95 moved by
/// 43% across seeds.
const TUPLES: u64 = 2_000;
const LONG_LIVED: u64 = 40;

/// The workload's generated inputs and check state.
pub struct PaperDisk {
    r: Relation,
    s: Relation,
    cfg: JoinConfig,
    /// Result cardinality of the checked run.
    expected_tuples: u64,
    /// I/O of the first timed op; every op must repeat it exactly.
    first_io: Option<IoStats>,
}

/// The simulated disk and the two stored relations.
pub struct Disk {
    disk: SharedDisk,
    r: HeapFile,
    s: HeapFile,
}

impl PaperDisk {
    /// Generates the inputs from `seed`.
    pub fn new(seed: u64) -> PaperDisk {
        let shape = Shape {
            tuples: TUPLES,
            long_lived: LONG_LIVED,
            lifespan: 1_000_000,
            keys: Keys::Uniform(4096),
            pad: 0,
        };
        PaperDisk {
            r: gen::relation(outer_schema(0), &shape, &mut Streams::new(seed, 1)),
            s: gen::relation(inner_schema(0), &shape, &mut Streams::new(!seed, 2)),
            cfg: JoinConfig::with_buffer(BUFFER_PAGES),
            expected_tuples: 0,
            first_io: None,
        }
    }

    fn join(&self, disk: &Disk, cfg: &JoinConfig) -> Result<(JoinReport, PlannerOutput), String> {
        PartitionJoin::default()
            .execute_with_plan(&disk.r, &disk.s, cfg)
            .map_err(|e| e.to_string())
    }
}

impl Workload for PaperDisk {
    type Sys = Disk;
    type Out = (JoinReport, PlannerOutput);

    fn setup(&self) -> Result<Disk, String> {
        let disk = SharedDisk::new(PAGE_BYTES);
        let load = |rel: &Relation| HeapFile::bulk_load(&disk, rel).map_err(|e| e.to_string());
        let sys = Disk {
            r: load(&self.r)?,
            s: load(&self.s)?,
            disk: disk.clone(),
        };
        self.join(&sys, &self.cfg)?;
        Ok(sys)
    }

    fn io(&self, sys: &Disk) -> IoStats {
        sys.disk.stats()
    }

    fn prepare(&mut self, sys: &Disk) -> Result<(), String> {
        let cfg = JoinConfig {
            collect_result: true,
            ..self.cfg.clone()
        };
        let (report, _) = self.join(sys, &cfg)?;
        let result = report.result.ok_or("collect_result returned no result")?;
        let oracle = natural_join(&self.r, &self.s).map_err(|e| e.to_string())?;
        check_same(
            "partition join vs natural_join oracle",
            &sorted_encoding(result.tuples()),
            &sorted_encoding(oracle.tuples()),
        )?;
        self.expected_tuples = oracle.len() as u64;
        Ok(())
    }

    fn op(
        &mut self,
        sys: &Disk,
        _i: usize,
        tr: &mut Trace,
        _first: &mut Option<Instant>,
    ) -> Result<Self::Out, String> {
        let sp = tr.open("join.partition", None);
        let out = self.join(sys, &self.cfg);
        tr.close(sp);
        out
    }

    fn after(
        &mut self,
        _sys: &Disk,
        _i: usize,
        (report, planner): Self::Out,
        io: IoStats,
        tr: &mut Trace,
        layers: &mut Layers,
    ) -> Result<(), String> {
        if report.result_tuples != self.expected_tuples {
            return Err(format!(
                "{} result tuples, oracle has {}",
                report.result_tuples, self.expected_tuples
            ));
        }
        if *self.first_io.get_or_insert(io) != io {
            return Err(format!("I/O {io} differs from the first op's"));
        }
        if !tr.enabled() {
            return Ok(());
        }
        layers.add("storage.random_ios_per_op", io.random() as f64);
        layers.add("storage.sequential_ios_per_op", io.sequential() as f64);
        layers.add(
            "join.planner.samples_drawn",
            planner.plan.samples_drawn as f64,
        );
        layers.add(
            "join.planner.partitions",
            planner.plan.intervals.len() as f64,
        );
        for p in &report.phases {
            let ms = p.wall_micros as f64 / 1e3;
            let (random, sequential) = (p.io.random() as f64, p.io.sequential() as f64);
            let names = match p.name {
                "plan" => {
                    layers.add("join.planner.ms", ms);
                    [
                        "join.partition.plan_ms",
                        "join.partition.plan_random_ios",
                        "join.partition.plan_sequential_ios",
                    ]
                }
                "partition" => [
                    "join.partition.partition_ms",
                    "join.partition.partition_random_ios",
                    "join.partition.partition_sequential_ios",
                ],
                "join" => [
                    "join.partition.join_ms",
                    "join.partition.join_random_ios",
                    "join.partition.join_sequential_ios",
                ],
                other => return Err(format!("unexpected partition-join phase {other}")),
            };
            layers.add(names[0], ms);
            layers.add(names[1], random);
            layers.add(names[2], sequential);
        }
        Ok(())
    }

    fn finish(&mut self, sys: &Disk, _tr: &Trace, layers: &mut Layers) {
        let committed = sys.disk.with(|d| d.committed_pages());
        layers.set("storage.committed_pages", committed as f64);
    }
}
