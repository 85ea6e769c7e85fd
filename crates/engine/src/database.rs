//! A catalog of named valid-time relations.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use vtjoin_core::{Interval, Relation, Schema, Tuple};
use vtjoin_storage::{HeapFile, HeapWriter, IoStats, SharedDisk};

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
/// knows: a version stamp (fresh on every rewrite) and the long-lived
/// tuple count, both maintained at load time so statistics queries
/// perform no I/O.
#[derive(Debug, Clone, Copy)]
struct TableMeta {
    version: u64,
    long_lived: u64,
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
    /// Rewrite stamp: every create and every append takes the next value
    /// of one database-wide counter, so a stamp is never reused — not
    /// even by a table dropped and recreated under the same name. Caches
    /// keyed by (table, version) therefore never serve older contents.
    pub version: u64,
}

/// Counts tuples whose lifespan is at least 1/16 of the hull span (with a
/// floor of 2 chronons, so instant-heavy tables over tiny hulls do not
/// count everything as long-lived).
fn long_lived_count(tuples: &[Tuple]) -> u64 {
    let mut hull: Option<Interval> = None;
    for t in tuples {
        hull = Some(match hull {
            Some(h) => h.span(t.valid()),
            None => t.valid(),
        });
    }
    let Some(h) = hull else { return 0 };
    let threshold = (h.duration() / 16).max(2);
    tuples
        .iter()
        .filter(|t| t.valid().duration() >= threshold)
        .count() as u64
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
        self.tables.insert(name.to_owned(), heap);
        let version = self.next_version();
        self.meta.insert(
            name.to_owned(),
            TableMeta {
                version,
                long_lived: long_lived_count(rel.tuples()),
            },
        );
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

    /// Drops a table (its extent is abandoned; the simulated disk does not
    /// reclaim address space).
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
        let meta = self.meta.get(name).copied().unwrap_or(TableMeta {
            version: 1,
            long_lived: 0,
        });
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

    /// Appends tuples to a table by rewriting it (heap files are
    /// immutable once finished; the incremental path for joins is the
    /// materialized-view layer, not base-table appends).
    pub fn append(&mut self, name: &str, tuples: &[Tuple]) -> Result<()> {
        let heap = self.table(name)?;
        let schema = Arc::clone(heap.schema());
        let mut all = heap.read_all()?.into_tuples();
        all.extend_from_slice(tuples);
        let pages = HeapFile::pages_needed(self.disk.page_size(), &all);
        let mut w = HeapWriter::create(&self.disk, schema, pages);
        for t in &all {
            w.push(t)?;
        }
        let heap = w.finish()?;
        self.tables.insert(name.to_owned(), heap);
        let version = self.next_version();
        self.meta.insert(
            name.to_owned(),
            TableMeta {
                version,
                long_lived: long_lived_count(&all),
            },
        );
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
    fn append_rewrites_table() {
        let mut db = Database::new(256);
        db.create_table("t", &rel(5)).unwrap();
        let extra: Vec<Tuple> = rel(3).into_tuples();
        db.append("t", &extra).unwrap();
        assert_eq!(db.table("t").unwrap().tuples(), 8);
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
