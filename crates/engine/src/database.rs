//! A catalog of named valid-time relations.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use vtjoin_core::{Interval, Relation, Schema, Tuple};
use vtjoin_storage::{HeapFile, IoStats, SharedDisk};

/// Errors raised by the database layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A table name was not found.
    NoSuchTable(String),
    /// A table name already exists.
    TableExists(String),
    /// Storage-layer failure.
    Storage(vtjoin_storage::StorageError),
    /// Join-layer failure.
    Join(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(n) => write!(f, "no such table `{n}`"),
            DbError::TableExists(n) => write!(f, "table `{n}` already exists"),
            DbError::Storage(e) => write!(f, "storage error: {e}"),
            DbError::Join(e) => write!(f, "join error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<vtjoin_storage::StorageError> for DbError {
    fn from(e: vtjoin_storage::StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<vtjoin_join::JoinError> for DbError {
    fn from(e: vtjoin_join::JoinError) -> Self {
        DbError::Join(e.to_string())
    }
}

/// Result alias for the database layer.
pub type Result<T> = std::result::Result<T, DbError>;

/// A collection of named valid-time relations on one simulated disk.
///
/// ```
/// use vtjoin_engine::Database;
/// use vtjoin_core::{AttrDef, AttrType, Interval, Relation, Schema, Tuple, Value};
///
/// let mut db = Database::new(4096);
/// let schema = Schema::new(vec![AttrDef::new("k", AttrType::Int)]).unwrap().into_shared();
/// let rel = Relation::new(schema, vec![
///     Tuple::new(vec![Value::Int(1)], Interval::from_raw(0, 10).unwrap()),
/// ]).unwrap();
/// db.create_table("emp", &rel).unwrap();
/// assert_eq!(db.table("emp").unwrap().tuples(), 1);
/// ```
#[derive(Debug)]
pub struct Database {
    disk: SharedDisk,
    tables: BTreeMap<String, HeapFile>,
    meta: BTreeMap<String, TableMeta>,
    /// The last version stamp handed out, database-wide.
    last_version: u64,
}

/// Catalog-tracked per-table metadata beyond what the heap file itself
/// knows: a version stamp (fresh on every create and append) and the
/// long-lived tuple count, both maintained at load time so statistics
/// queries perform no I/O. The sorted tuple durations let an append
/// recount the long-lived tuples exactly, against the new hull, without
/// reading the table back.
#[derive(Debug, Clone)]
struct TableMeta {
    version: u64,
    long_lived: u64,
    durations: Vec<u64>,
}

impl TableMeta {
    /// The metadata of freshly loaded `tuples` under `hull`.
    fn new(version: u64, tuples: &[Tuple], hull: Option<Interval>) -> TableMeta {
        let mut durations: Vec<u64> = tuples.iter().map(duration).collect();
        durations.sort_unstable();
        let long_lived = long_lived_count(&durations, hull);
        TableMeta {
            version,
            long_lived,
            durations,
        }
    }

    /// Folds appended `tuples` in; `hull` is the table's hull after them.
    fn append(&mut self, version: u64, tuples: &[Tuple], hull: Option<Interval>) {
        let mut delta: Vec<u64> = tuples.iter().map(duration).collect();
        delta.sort_unstable();
        let old = &self.durations;
        let mut merged = Vec::with_capacity(old.len() + delta.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < delta.len() {
            if old[i] <= delta[j] {
                merged.push(old[i]);
                i += 1;
            } else {
                merged.push(delta[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&delta[j..]);
        self.durations = merged;
        self.long_lived = long_lived_count(&self.durations, hull);
        self.version = version;
    }
}

/// A tuple's lifespan in chronons, saturated to `u64` (only the full
/// timeline exceeds it, and every threshold it is compared with is far
/// below).
fn duration(t: &Tuple) -> u64 {
    u64::try_from(t.valid().duration()).unwrap_or(u64::MAX)
}

/// A zero-I/O statistics snapshot of one table — the raw material for a
/// plan-cache fingerprint. Everything here is maintained by the catalog at
/// create/append time; reading it never touches the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Tuple count.
    pub tuples: u64,
    /// Heap pages.
    pub pages: u64,
    /// Zone-map time hull over all tuples (`None` for an empty table).
    pub time_hull: Option<Interval>,
    /// Tuples whose lifespan covers at least 1/16 of the table's hull —
    /// the statistic behind the planner's tuple-cache estimate (§3.3).
    pub long_lived: u64,
    /// Version stamp: every create and every append takes the next value
    /// of one database-wide counter, so a stamp is never reused — not
    /// even by a table dropped and recreated under the same name. Caches
    /// keyed by (table, version) therefore never serve older contents.
    pub version: u64,
}

/// Counts tuples whose lifespan is at least 1/16 of the hull span (with a
/// floor of 2 chronons, so instant-heavy tables over tiny hulls do not
/// count everything as long-lived), from their sorted durations.
fn long_lived_count(sorted_durations: &[u64], hull: Option<Interval>) -> u64 {
    let Some(h) = hull else { return 0 };
    let threshold = u64::try_from((h.duration() / 16).max(2)).unwrap_or(u64::MAX);
    let short = sorted_durations.partition_point(|&d| d < threshold);
    (sorted_durations.len() - short) as u64
}

impl Database {
    /// An empty database on a fresh simulated disk.
    pub fn new(page_size: usize) -> Database {
        Database {
            disk: SharedDisk::new(page_size),
            tables: BTreeMap::new(),
            meta: BTreeMap::new(),
            last_version: 0,
        }
    }

    /// The next database-wide version stamp.
    fn next_version(&mut self) -> u64 {
        self.last_version += 1;
        self.last_version
    }

    /// The shared disk (for running join algorithms against tables).
    pub fn disk(&self) -> &SharedDisk {
        &self.disk
    }

    /// Creates a table from an in-memory relation.
    pub fn create_table(&mut self, name: &str, rel: &Relation) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        let heap = HeapFile::bulk_load(&self.disk, rel)?;
        let version = self.next_version();
        let meta = TableMeta::new(version, rel.tuples(), heap.time_hull());
        self.tables.insert(name.to_owned(), heap);
        self.meta.insert(name.to_owned(), meta);
        Ok(())
    }

    /// Creates an empty table with the given schema.
    pub fn create_empty(&mut self, name: &str, schema: Arc<Schema>) -> Result<()> {
        self.create_table(name, &Relation::empty(schema))
    }

    /// The heap file behind a table.
    pub fn table(&self, name: &str) -> Result<&HeapFile> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Lists table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Drops a table from the catalog. Its extent is released, and its
    /// pages' memory given back, once no heap-file clone taken before the
    /// drop holds it; such clones keep reading their snapshot until then.
    /// The addresses are never reused. A table later created under the
    /// same name takes a new version stamp.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.meta.remove(name);
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Zero-I/O statistics snapshot of a table (see [`TableStats`]).
    pub fn table_stats(&self, name: &str) -> Result<TableStats> {
        let heap = self.table(name)?;
        let meta = self
            .meta
            .get(name)
            .expect("every table has catalog metadata");
        Ok(TableStats {
            tuples: heap.tuples(),
            pages: heap.pages(),
            time_hull: heap.time_hull(),
            long_lived: meta.long_lived,
            version: meta.version,
        })
    }

    /// Reads a whole table back into memory (a charged full scan).
    pub fn scan(&self, name: &str) -> Result<Relation> {
        Ok(self.table(name)?.read_all()?)
    }

    /// Appends tuples to a table in place: the heap file writes only its
    /// tail page and new pages ([`HeapFile::append`]), and the catalog
    /// folds the delta into the table's statistics without reading the
    /// table back. The table then takes a new version stamp, so caches
    /// keyed by (table, version) see new contents.
    ///
    /// The catalog update is the commit point. On an error nothing in the
    /// catalog changes and the table still reads as before; heap-file
    /// clones taken before the append keep reading their snapshot either
    /// way. An empty append writes nothing but still takes a new version.
    pub fn append(&mut self, name: &str, tuples: &[Tuple]) -> Result<()> {
        let heap = self
            .tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))?;
        heap.append(tuples)?;
        let hull = heap.time_hull();
        let version = self.next_version();
        self.meta
            .get_mut(name)
            .expect("every table has catalog metadata")
            .append(version, tuples, hull);
        Ok(())
    }

    /// Cumulative I/O statistics of the underlying disk.
    pub fn io_stats(&self) -> IoStats {
        self.disk.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::{AttrDef, AttrType, Interval, Value};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![AttrDef::new("k", AttrType::Int)])
            .unwrap()
            .into_shared()
    }

    fn rel(n: i64) -> Relation {
        Relation::from_parts_unchecked(
            schema(),
            (0..n)
                .map(|i| Tuple::new(vec![Value::Int(i)], Interval::from_raw(i, i + 1).unwrap()))
                .collect(),
        )
    }

    #[test]
    fn create_scan_drop() {
        let mut db = Database::new(256);
        db.create_table("t", &rel(20)).unwrap();
        assert_eq!(db.table_names(), vec!["t"]);
        let back = db.scan("t").unwrap();
        assert!(back.multiset_eq(&rel(20)));
        assert!(matches!(
            db.create_table("t", &rel(1)),
            Err(DbError::TableExists(_))
        ));
        db.drop_table("t").unwrap();
        assert!(matches!(db.scan("t"), Err(DbError::NoSuchTable(_))));
        assert!(matches!(db.drop_table("t"), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn versions_never_repeat_for_a_name() {
        let mut db = Database::new(256);
        db.create_table("t", &rel(5)).unwrap();
        let created = db.table_stats("t").unwrap().version;
        db.append("t", &rel(2).into_tuples()).unwrap();
        let appended = db.table_stats("t").unwrap().version;
        assert!(appended > created);
        db.drop_table("t").unwrap();
        db.create_table("t", &rel(5)).unwrap();
        assert!(db.table_stats("t").unwrap().version > appended);
    }

    #[test]
    fn append_extends_table() {
        let mut db = Database::new(256);
        db.create_table("t", &rel(5)).unwrap();
        let extra: Vec<Tuple> = rel(3).into_tuples();
        db.append("t", &extra).unwrap();
        assert_eq!(db.table("t").unwrap().tuples(), 8);
    }

    #[test]
    fn drop_and_create_cycles_keep_committed_pages_flat() {
        let mut db = Database::new(256);
        db.create_table("keep", &rel(30)).unwrap();
        let kept = db.table("keep").unwrap().pages();
        for _ in 0..5 {
            db.create_table("t", &rel(50)).unwrap();
            let t = db.table("t").unwrap().pages();
            assert_eq!(db.disk().committed_pages(), kept + t);
            db.drop_table("t").unwrap();
            assert_eq!(db.disk().committed_pages(), kept);
        }
        assert_eq!(db.scan("keep").unwrap().tuples(), rel(30).tuples());
    }

    #[test]
    fn a_relocating_append_releases_the_old_extent_once_no_snapshot_holds_it() {
        let mut db = Database::new(256);
        db.create_table("t", &rel(20)).unwrap();
        let old_pages = db.table("t").unwrap().pages();
        let snapshot = db.table("t").unwrap().clone();
        // A bulk-loaded extent is exact-sized: an append that needs a new
        // page relocates.
        db.append("t", &mixed(20, 30, 0)).unwrap();
        let new_pages = db.table("t").unwrap().pages();
        assert_ne!(db.table("t").unwrap().page_id(0), snapshot.page_id(0));
        assert_eq!(db.disk().committed_pages(), old_pages + new_pages);
        assert_eq!(snapshot.read_all().unwrap().tuples(), rel(20).tuples());
        drop(snapshot);
        assert_eq!(db.disk().committed_pages(), new_pages);
        // With no snapshot held, every later append (relocating or not)
        // leaves exactly the table's pages committed.
        for k in 0..6 {
            db.append("t", &mixed(50 + 7 * k, 7, 0)).unwrap();
            assert_eq!(db.disk().committed_pages(), db.table("t").unwrap().pages());
        }
        assert_eq!(db.table("t").unwrap().tuples(), 92);
    }

    /// `n` tuples from `from` on: instants, short and long lifespans.
    fn mixed(from: i64, n: i64, shift: i64) -> Vec<Tuple> {
        (from..from + n)
            .map(|i| {
                let start = (i * 13) % 97 + shift;
                let len = [0, 1, 3, 9, 40][(i % 5) as usize];
                Tuple::new(
                    vec![Value::Int(i)],
                    Interval::from_raw(start, start + len).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn append_stats_equal_a_fresh_create_of_the_same_tuples() {
        // Deltas inside the hull, one that widens it (the long-lived
        // threshold rises), an empty one, and one onto an empty table.
        let mut db = Database::new(256);
        db.create_table(
            "t",
            &Relation::from_parts_unchecked(schema(), mixed(0, 40, 0)),
        )
        .unwrap();
        db.create_empty("e", schema()).unwrap();
        let mut all = mixed(0, 40, 0);
        let mut counts = Vec::new();
        for (delta, table) in [
            (mixed(40, 7, 0), "t"),
            (mixed(47, 30, 300), "t"),
            (Vec::new(), "t"),
            (mixed(77, 3, -50), "t"),
            (mixed(0, 9, 5), "e"),
        ] {
            db.append(table, &delta).unwrap();
            let contents = if table == "t" {
                all.extend(delta);
                all.clone()
            } else {
                delta
            };
            let mut fresh = Database::new(256);
            fresh
                .create_table("f", &Relation::from_parts_unchecked(schema(), contents))
                .unwrap();
            let (got, want) = (
                db.table_stats(table).unwrap(),
                fresh.table_stats("f").unwrap(),
            );
            assert_eq!(
                (got.tuples, got.pages, got.time_hull, got.long_lived),
                (want.tuples, want.pages, want.time_hull, want.long_lived),
                "{table}"
            );
            counts.push(got.long_lived);
        }
        // Widening the hull raised the threshold past the 9-chronon
        // tuples: the count fell although tuples were added.
        assert!(counts[1] < counts[0], "{counts:?}");
    }

    #[test]
    fn a_failed_append_changes_nothing_in_the_catalog() {
        use vtjoin_storage::{FaultConfig, RetryPolicy};
        let mut db = Database::new(256);
        db.create_table("t", &rel(30)).unwrap();
        db.append("t", &rel(2).into_tuples()).unwrap();
        let before = db.table_stats("t").unwrap();
        let snapshot = db.table("t").unwrap().clone();
        db.disk().set_retry_policy(RetryPolicy::NONE);
        db.disk().set_fault_config(Some(FaultConfig {
            seed: 3,
            read_fail_permille: 0,
            write_fail_permille: 1000,
            torn_write_permille: 0,
        }));
        assert!(matches!(
            db.append("t", &mixed(0, 40, 0)),
            Err(DbError::Storage(_))
        ));
        db.disk().set_fault_config(None);
        assert_eq!(db.table_stats("t").unwrap(), before);
        let mut want = rel(30).into_tuples();
        want.extend(rel(2).into_tuples());
        assert_eq!(db.scan("t").unwrap().tuples(), &want[..]);
        assert_eq!(snapshot.read_all().unwrap().tuples(), &want[..]);
    }

    #[test]
    fn create_empty_table() {
        let mut db = Database::new(256);
        db.create_empty("e", schema()).unwrap();
        assert_eq!(db.table("e").unwrap().tuples(), 0);
        assert!(db.scan("e").unwrap().is_empty());
    }

    #[test]
    fn io_stats_accumulate() {
        let mut db = Database::new(256);
        let before = db.io_stats().total_ios();
        db.create_table("t", &rel(50)).unwrap();
        assert!(db.io_stats().total_ios() > before);
    }
}
