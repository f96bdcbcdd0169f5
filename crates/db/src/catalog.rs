//! The catalog: tables, indexes, and the database handle.
//!
//! Pythia trains one model per *database object* (base table or index), so
//! every object gets a stable [`ObjectId`] that the trace, the training data
//! and the model registry all key on.

use pythia_sim::{FileId, SimDisk};

use crate::btree::BTree;
use crate::heap::HeapFile;
use crate::types::{Datum, Schema};

/// Identifier of a database object (base table or index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

/// Identifier of a table (indexes into the table list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// What an object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    Table,
    Index,
}

/// Catalog entry for an index.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    pub object: ObjectId,
    pub name: String,
    pub table: TableId,
    /// Column of the base table the index is built on.
    pub key_col: usize,
    pub btree: BTree,
}

/// Catalog entry for a table.
#[derive(Debug, Clone)]
pub struct TableInfo {
    pub object: ObjectId,
    pub name: String,
    pub schema: Schema,
    pub heap: HeapFile,
    /// Indexes on this table, in creation order.
    pub indexes: Vec<usize>,
}

#[derive(Debug, Clone)]
struct ObjectMeta {
    name: String,
    kind: ObjectKind,
    file: FileId,
}

/// A static, read-only database: the simulated disk plus the catalog.
#[derive(Debug)]
pub struct Database {
    pub disk: SimDisk,
    objects: Vec<ObjectMeta>,
    tables: Vec<TableInfo>,
    indexes: Vec<IndexInfo>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            disk: SimDisk::new(),
            objects: Vec::new(),
            tables: Vec::new(),
            indexes: Vec::new(),
        }
    }

    fn register_object(&mut self, name: String, kind: ObjectKind, file: FileId) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(ObjectMeta { name, kind, file });
        id
    }

    /// Create an empty table.
    ///
    /// # Panics
    /// Panics if the name is already taken.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> TableId {
        assert!(
            !self.tables.iter().any(|t| t.name == name),
            "table {name} already exists"
        );
        let heap = HeapFile::create(&mut self.disk);
        let object = self.register_object(name.to_owned(), ObjectKind::Table, heap.file);
        let tid = TableId(self.tables.len() as u32);
        self.tables.push(TableInfo {
            object,
            name: name.to_owned(),
            schema,
            heap,
            indexes: Vec::new(),
        });
        tid
    }

    /// Insert a row into `table`; the heap encodes it where it lands.
    pub fn insert(&mut self, table: TableId, row: &[Datum]) {
        let t = &mut self.tables[table.0 as usize];
        debug_assert_eq!(
            row.len(),
            t.schema.arity(),
            "arity mismatch inserting into {}",
            t.name
        );
        t.heap.insert(&mut self.disk, row);
    }

    /// Bulk-build a B+Tree index on an integer column of `table`, reading
    /// each record's key in place.
    ///
    /// # Panics
    /// Panics if the column contains non-integer datums.
    pub fn create_index(&mut self, name: &str, table: TableId, key_col: usize) -> ObjectId {
        let heap = &self.tables[table.0 as usize].heap;
        let layout = heap.layout();
        let mut entries = Vec::with_capacity(heap.tuple_count() as usize);
        entries.extend(heap.records(&self.disk).map(|(rid, bytes)| {
            let k = layout
                .int_at(bytes, key_col)
                .unwrap_or_else(|| panic!("index {name}: column {key_col} not Int"));
            (k, rid)
        }));
        let btree = BTree::bulk_build(&mut self.disk, entries);
        let object = self.register_object(name.to_owned(), ObjectKind::Index, btree.file);
        let idx_no = self.indexes.len();
        self.indexes.push(IndexInfo {
            object,
            name: name.to_owned(),
            table,
            key_col,
            btree,
        });
        self.tables[table.0 as usize].indexes.push(idx_no);
        object
    }

    /// Catalog info for a table.
    pub fn table_info(&self, id: TableId) -> &TableInfo {
        &self.tables[id.0 as usize]
    }

    /// All tables.
    pub fn tables(&self) -> &[TableInfo] {
        &self.tables
    }

    /// Catalog info for an index, by the *object* id returned from
    /// [`Self::create_index`].
    pub fn index_info(&self, object: ObjectId) -> &IndexInfo {
        self.indexes
            .iter()
            .find(|i| i.object == object)
            .unwrap_or_else(|| panic!("object {object:?} is not an index"))
    }

    /// Name of an object.
    pub fn object_name(&self, id: ObjectId) -> &str {
        &self.objects[id.0 as usize].name
    }

    /// Kind of an object.
    pub fn object_kind(&self, id: ObjectId) -> ObjectKind {
        self.objects[id.0 as usize].kind
    }

    /// File backing an object.
    pub fn object_file(&self, id: ObjectId) -> FileId {
        self.objects[id.0 as usize].file
    }

    /// Pages in an object's file.
    pub fn object_pages(&self, id: ObjectId) -> u32 {
        self.disk.file_len(self.objects[id.0 as usize].file)
    }

    /// File lengths indexed by [`FileId`] — the replay runtime needs them for
    /// OS readahead EOF clamping.
    pub fn file_lengths(&self) -> Vec<u32> {
        (0..self.disk.file_count() as u32)
            .map(|f| self.disk.file_len(FileId(f)))
            .collect()
    }

    /// Convenience: a row of integer datums, on the stack.
    pub fn row<const N: usize>(vals: [i64; N]) -> [Datum; N] {
        vals.map(Datum::Int)
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::PageId;

    fn small_db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::ints(&["id", "val"]));
        for i in 0..1000 {
            db.insert(t, &Database::row([i, i % 10]));
        }
        (db, t)
    }

    #[test]
    fn create_and_lookup() {
        let (db, t) = small_db();
        assert_eq!(db.table_info(t).name, "t");
        assert_eq!(db.table_info(t).heap.tuple_count(), 1000);
        assert_eq!(db.object_kind(db.table_info(t).object), ObjectKind::Table);
    }

    #[test]
    #[should_panic]
    fn duplicate_table_panics() {
        let mut db = Database::new();
        db.create_table("t", Schema::ints(&["a"]));
        db.create_table("t", Schema::ints(&["a"]));
    }

    #[test]
    fn index_build_and_lookup() {
        let (mut db, t) = small_db();
        let idx = db.create_index("t_val", t, 1);
        assert_eq!(db.object_kind(idx), ObjectKind::Index);
        let info = db.index_info(idx);
        assert_eq!(info.key_col, 1);
        let entries = info
            .btree
            .range(&db.disk, i64::MIN, i64::MAX, &mut |_, _| {});
        assert_eq!(entries.len(), 1000);
        // 100 rows have val == 3.
        let rids = info.btree.search(&db.disk, 3, &mut |_, _| {});
        assert_eq!(rids.len(), 100);
        // Every rid resolves to a matching row.
        let heap = &db.table_info(t).heap;
        for rid in rids {
            let row = heap.read_tuple(&db.disk, rid);
            assert_eq!(row[1], Datum::Int(3));
        }
    }

    #[test]
    fn object_ids_cover_tables_and_indexes() {
        let (mut db, t) = small_db();
        let idx = db.create_index("t_val", t, 1);
        // One id space, numbered in creation order.
        assert_eq!([db.table_info(t).object, idx], [ObjectId(0), ObjectId(1)]);
        let names: Vec<&str> = [ObjectId(0), ObjectId(1)].map(|o| db.object_name(o)).into();
        assert_eq!(names, vec!["t", "t_val"]);
        assert_eq!(db.file_lengths().len(), 2);
    }

    #[test]
    fn file_lengths_match_disk() {
        let (mut db, t) = small_db();
        db.create_index("t_val", t, 1);
        let lens = db.file_lengths();
        assert_eq!(lens.len(), db.disk.file_count());
        let tbl_obj = db.table_info(t).object;
        assert_eq!(
            lens[db.object_file(tbl_obj).0 as usize],
            db.object_pages(tbl_obj)
        );
    }

    #[test]
    fn index_keys_read_in_place_build_the_tree_of_decoded_rows() {
        for tagged in [false, true] {
            // Unsorted keys, each about seven times; in the `Tagged` heap a
            // third of the rows carry a string and a NULL beside the key.
            let build = || {
                let mut db = Database::new();
                let t = db.create_table("t", Schema::ints(&["id", "key", "note"]));
                for i in 0..3000_i64 {
                    let key = (i * 37) % 400;
                    if tagged && i % 3 == 1 {
                        db.insert(
                            t,
                            &[Datum::Str(format!("r{i}")), Datum::Int(key), Datum::Null],
                        );
                    } else {
                        db.insert(t, &Database::row([i, key, -i]));
                    }
                }
                (db, t)
            };
            let (mut db, t) = build();
            let idx = db.create_index("t_key", t, 1);
            let (mut reference, t) = build();
            let heap = &reference.table_info(t).heap;
            let entries = (0..heap.page_count(&reference.disk))
                .flat_map(|p| heap.read_page(&reference.disk, p))
                .map(|(rid, row)| (row[1].as_int().expect("an Int key"), rid))
                .collect();
            let tree = BTree::bulk_build(&mut reference.disk, entries);

            let file = db.index_info(idx).btree.file;
            assert_eq!(file, tree.file);
            let pages = db.disk.file_len(file);
            assert_eq!(pages, reference.disk.file_len(file));
            assert!(pages > 2, "tagged {tagged}: {pages} index pages");
            for p in 0..pages {
                let pid = PageId::new(file, p);
                assert_eq!(
                    db.disk.read(pid),
                    reference.disk.read(pid),
                    "tagged {tagged}: page {p}"
                );
            }
        }
    }
}
