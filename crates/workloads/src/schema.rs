//! Schema definition and data population for the DSB-like and IMDB-like
//! benchmarks.
//!
//! Row counts below are the `scale = 1.0` defaults; `scale` multiplies them
//! (Figure 12a sweeps 0.25 / 0.5 / 1.0 as the analog of SF 25/50/100).

use pythia_db::catalog::{Database, ObjectId, TableId};
use pythia_db::types::{Datum, Schema};
use pythia_sim::rng::Rng;

use crate::datagen::{clustered, uniform, Zipf};
use crate::templates::Template;

/// Knobs for the generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Scale factor: multiplies every row count (1.0 ≈ the paper's SF100,
    /// scaled to laptop size).
    pub scale: f64,
    /// RNG seed (all data is deterministic given the seed).
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            scale: 1.0,
            seed: 0xDB,
        }
    }
}

/// Handles to every table/index the templates need.
#[derive(Debug)]
pub struct BenchmarkDb {
    pub db: Database,
    // --- DSB-like star schema ---
    pub store_sales: TableId,
    pub catalog_returns: TableId,
    pub customer: TableId,
    pub customer_demographics: TableId,
    pub household_demographics: TableId,
    pub customer_address: TableId,
    pub date_dim: TableId,
    pub item: TableId,
    pub store: TableId,
    pub call_center: TableId,
    pub idx_customer: ObjectId,
    pub idx_cdemo: ObjectId,
    pub idx_hdemo: ObjectId,
    pub idx_caddr: ObjectId,
    pub idx_item: ObjectId,
    pub idx_store: ObjectId,
    pub idx_cc: ObjectId,
    pub idx_date: ObjectId,
    // --- IMDB/CEB-like ---
    pub title: TableId,
    pub cast_info: TableId,
    pub movie_companies: TableId,
    pub company_type: TableId,
    pub idx_cast_movie: ObjectId,
    pub idx_mc_movie: ObjectId,
    pub idx_ct: ObjectId,
    // --- domain sizes the templates sample parameters from ---
    pub n_dates: i64,
    pub n_customers: i64,
    pub n_cdemo: i64,
    pub n_hdemo: i64,
    pub n_caddr: i64,
    pub n_items: i64,
    pub n_stores: i64,
    pub n_cc: i64,
    pub n_titles: i64,
    pub n_sales: i64,
    pub n_returns: i64,
    pub n_cast: i64,
    /// The templates [`build_for`] filled this database for: sampling any
    /// other is refused, as its tables may hold no row.
    pub(crate) filled_for: Vec<Template>,
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(8)
}

/// Build and populate the full benchmark database: [`build_for`] every
/// template.
pub fn build_benchmark(cfg: &GeneratorConfig) -> BenchmarkDb {
    build_for(cfg, &Template::ALL)
}

/// Build the benchmark database with rows only in the tables `templates`
/// read (`Template::tables`).
///
/// Every table and index is created, in the same order as for every
/// template, so every `TableId`, `ObjectId` and `FileId` is the one
/// [`build_benchmark`] gives it, and so is every read table's and index's
/// byte. The values of an unread table's rows are still drawn, so no later
/// row changes; the IMDB-like tables come last, and a build that fills none
/// of them draws none of their values. An index holds the entries of its
/// table's rows: an unread table's indexes are one empty leaf each. (The one
/// index no template reads, `date_dim_pk`, is therefore built whenever
/// `date_dim` is filled, as [`build_benchmark`] always built it.)
///
/// Correlation summary (what makes access patterns *learnable*):
/// * a sale's customer is drawn near `date/ndates * ncustomers` (clustered,
///   8% uniform outliers) — date-range predicates select near-contiguous
///   customer key ranges;
/// * a customer's demographics / household / address keys are near-linear in
///   the customer key — probes cascade through correlated dimensions;
/// * items are Zipf(1.0)-popular — heavy-tailed page popularity;
/// * IMDB titles are chronological and `cast_info` is grouped by movie —
///   production-year ranges select contiguous `cast_info` page ranges.
pub fn build_for(cfg: &GeneratorConfig, templates: &[Template]) -> BenchmarkDb {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut db = Filler {
        db: Database::new(),
        templates,
        filled: Vec::new(),
    };
    let s = cfg.scale;

    // Row counts mirror the paper's DSB shape: the sequentially scanned fact
    // is *smaller in pages* than the dimension space reached through index
    // probes (Table 1: per query, distinct non-sequential reads rival or
    // exceed sequential reads), so queries are non-sequential-I/O-bound.
    let n_dates = scaled(2190, 1.0) as i64; // 6 years of days, fixed
    let n_customers = scaled(48_000, s) as i64;
    let n_cdemo = scaled(38_400, s) as i64;
    let n_hdemo = scaled(14_400, s) as i64;
    let n_caddr = scaled(24_000, s) as i64;
    let n_items = scaled(24_000, s) as i64;
    let n_stores = scaled(240, s) as i64;
    let n_cc = scaled(30, 1.0) as i64;
    let n_sales = scaled(60_000, s) as i64;
    let n_returns = scaled(10_000, s) as i64;
    let n_titles = scaled(40_000, s) as i64;
    let n_cast = scaled(240_000, s) as i64;

    // --- dimensions ---
    let date_dim = db.create_table(
        "date_dim",
        Schema::ints(&["d_date_sk", "d_year", "d_moy", "d_qoy"]),
    );
    for d in 0..n_dates {
        let year = 2000 + d / 365;
        let doy = d % 365;
        db.insert(
            date_dim,
            &Database::row([d, year, doy / 30 + 1, doy / 91 + 1]),
        );
    }

    let customer = db.create_table(
        "customer",
        Schema::ints(&[
            "c_customer_sk",
            "c_cdemo_sk",
            "c_hdemo_sk",
            "c_addr_sk",
            "c_birth_month",
            "c_birth_year",
        ]),
    );
    for c in 0..n_customers {
        // Demographics keys near-linear in the customer key (clustered).
        let cdemo = clustered(
            &mut rng,
            c as f64 / n_customers as f64 * n_cdemo as f64,
            n_cdemo as f64 * 0.01,
            n_cdemo as usize,
            0.05,
        );
        let hdemo = clustered(
            &mut rng,
            c as f64 / n_customers as f64 * n_hdemo as f64,
            n_hdemo as f64 * 0.02,
            n_hdemo as usize,
            0.05,
        );
        let addr = clustered(
            &mut rng,
            c as f64 / n_customers as f64 * n_caddr as f64,
            n_caddr as f64 * 0.015,
            n_caddr as usize,
            0.05,
        );
        let birth_month = 1 + uniform(&mut rng, 12);
        let birth_year = 1940 + uniform(&mut rng, 60);
        db.insert(
            customer,
            &Database::row([c, cdemo, hdemo, addr, birth_month, birth_year]),
        );
    }

    let customer_demographics = db.create_table(
        "customer_demographics",
        Schema::ints(&[
            "cd_demo_sk",
            "cd_gender",
            "cd_marital",
            "cd_education",
            "cd_dep_count",
        ]),
    );
    for d in 0..n_cdemo {
        db.insert(
            customer_demographics,
            &Database::row([
                d,
                d % 2,
                uniform(&mut rng, 5),
                uniform(&mut rng, 7),
                uniform(&mut rng, 6),
            ]),
        );
    }

    let household_demographics = db.create_table(
        "household_demographics",
        Schema::ints(&["hd_demo_sk", "hd_income_band", "hd_dep_count", "hd_vehicle"]),
    );
    for d in 0..n_hdemo {
        db.insert(
            household_demographics,
            &Database::row([
                d,
                uniform(&mut rng, 20),
                uniform(&mut rng, 8),
                uniform(&mut rng, 4),
            ]),
        );
    }

    let customer_address = db.create_table(
        "customer_address",
        Schema::ints(&["ca_address_sk", "ca_state", "ca_gmt"]),
    );
    for a in 0..n_caddr {
        db.insert(
            customer_address,
            &Database::row([a, uniform(&mut rng, 50), -uniform(&mut rng, 12)]),
        );
    }

    let item = db.create_table(
        "item",
        Schema::ints(&["i_item_sk", "i_category", "i_brand", "i_price_band"]),
    );
    for i in 0..n_items {
        // Category correlates with the item key (catalog sections).
        let cat = (i * 10 / n_items).min(9);
        db.insert(
            item,
            &Database::row([i, cat, uniform(&mut rng, 100), uniform(&mut rng, 20)]),
        );
    }

    let store = db.create_table(
        "store",
        Schema::ints(&["s_store_sk", "s_state", "s_market"]),
    );
    for st in 0..n_stores {
        db.insert(
            store,
            &Database::row([st, uniform(&mut rng, 50), uniform(&mut rng, 10)]),
        );
    }

    let call_center = db.create_table(
        "call_center",
        Schema::ints(&["cc_call_center_sk", "cc_class"]),
    );
    for c in 0..n_cc {
        db.insert(call_center, &Database::row([c, uniform(&mut rng, 3)]));
    }

    // --- facts ---
    let item_zipf = Zipf::new(n_items as usize, 1.0);
    let store_sales = db.create_table(
        "store_sales",
        Schema::ints(&[
            "ss_id",
            "ss_sold_date_sk",
            "ss_customer_sk",
            "ss_cdemo_sk",
            "ss_hdemo_sk",
            "ss_item_sk",
            "ss_store_sk",
            "ss_quantity",
            "ss_price",
        ]),
    );
    for i in 0..n_sales {
        // Sales are appended chronologically (like a real warehouse).
        let date = i * n_dates / n_sales;
        let cust = clustered(
            &mut rng,
            date as f64 / n_dates as f64 * n_customers as f64,
            n_customers as f64 * 0.03,
            n_customers as usize,
            0.08,
        );
        // Read the customer's demo keys back? Too slow — regenerate with the
        // same distribution shape: sale-level demo keys cluster with the
        // customer key like the customer's own.
        let cdemo = clustered(
            &mut rng,
            cust as f64 / n_customers as f64 * n_cdemo as f64,
            n_cdemo as f64 * 0.01,
            n_cdemo as usize,
            0.05,
        );
        let hdemo = clustered(
            &mut rng,
            cust as f64 / n_customers as f64 * n_hdemo as f64,
            n_hdemo as f64 * 0.02,
            n_hdemo as usize,
            0.05,
        );
        let it = item_zipf.sample(&mut rng) as i64;
        let st = uniform(&mut rng, n_stores as usize);
        let qty = 1 + uniform(&mut rng, 100);
        let price = 1 + uniform(&mut rng, 1000);
        db.insert(
            store_sales,
            &Database::row([i, date, cust, cdemo, hdemo, it, st, qty, price]),
        );
    }

    let catalog_returns = db.create_table(
        "catalog_returns",
        Schema::ints(&[
            "cr_id",
            "cr_returned_date_sk",
            "cr_customer_sk",
            "cr_call_center_sk",
            "cr_item_sk",
            "cr_amount",
        ]),
    );
    for i in 0..n_returns {
        let date = i * n_dates / n_returns;
        let cust = clustered(
            &mut rng,
            date as f64 / n_dates as f64 * n_customers as f64,
            n_customers as f64 * 0.03,
            n_customers as usize,
            0.08,
        );
        let cc = uniform(&mut rng, n_cc as usize);
        let it = item_zipf.sample(&mut rng) as i64;
        let amount = 1 + uniform(&mut rng, 500);
        db.insert(
            catalog_returns,
            &Database::row([i, date, cust, cc, it, amount]),
        );
    }

    // --- IMDB-like ---
    // No value is drawn after these four tables, so a build that fills none
    // of them draws none of their values.
    let imdb = ["title", "cast_info", "movie_companies", "company_type"]
        .iter()
        .any(|name| db.reads(name));
    let title = db.create_table(
        "title",
        Schema::ints(&["t_id", "t_production_year", "t_kind_id"]),
    );
    if imdb {
        // Titles are chronological (id maps to year 1920..2020) but stored in
        // shuffled order, like a real dump: a year-range scan therefore
        // probes cast_info in scattered order (defeating OS readahead) while
        // the probed *page set* stays clustered (movies of adjacent years
        // share cast_info pages) — exactly the paper's prefetchable pattern.
        let mut ids: Vec<i64> = (0..n_titles).collect();
        for i in (1..ids.len()).rev() {
            let j = uniform(&mut rng, i + 1) as usize;
            ids.swap(i, j);
        }
        for t in ids {
            let year = 1920 + t * 100 / n_titles;
            db.insert(title, &Database::row([t, year, uniform(&mut rng, 7)]));
        }
    }

    let cast_info = db.create_table(
        "cast_info",
        Schema::ints(&["ci_id", "ci_movie_id", "ci_person_id", "ci_role_id"]),
    );
    if imdb {
        // cast_info grouped by movie (as in the real IMDB dump): movie t gets
        // a variable number of cast rows.
        let mut ci = 0i64;
        let per_movie = (n_cast / n_titles).max(1);
        for t in 0..n_titles {
            let k = 1 + uniform(&mut rng, (2 * per_movie) as usize);
            for _ in 0..k {
                if ci >= n_cast {
                    break;
                }
                db.insert(
                    cast_info,
                    &Database::row([ci, t, uniform(&mut rng, 100_000), uniform(&mut rng, 11)]),
                );
                ci += 1;
            }
        }
    }

    let movie_companies = db.create_table(
        "movie_companies",
        Schema::ints(&[
            "mc_id",
            "mc_movie_id",
            "mc_company_id",
            "mc_company_type_id",
        ]),
    );
    if imdb {
        let n_mc = scaled(60_000, s) as i64;
        for m in 0..n_mc {
            let movie = m * n_titles / n_mc;
            db.insert(
                movie_companies,
                &Database::row([m, movie, uniform(&mut rng, 5_000), uniform(&mut rng, 4)]),
            );
        }
    }

    let company_type = db.create_table("company_type", Schema::ints(&["ct_id", "ct_kind"]));
    for c in 0..4 {
        db.insert(company_type, &Database::row([c, c]));
    }

    // --- indexes (all on the probe keys the templates use) ---
    let mut db = db.db;
    let idx_customer = db.create_index("customer_pk", customer, 0);
    let idx_cdemo = db.create_index("customer_demographics_pk", customer_demographics, 0);
    let idx_hdemo = db.create_index("household_demographics_pk", household_demographics, 0);
    let idx_caddr = db.create_index("customer_address_pk", customer_address, 0);
    let idx_item = db.create_index("item_pk", item, 0);
    let idx_store = db.create_index("store_pk", store, 0);
    let idx_cc = db.create_index("call_center_pk", call_center, 0);
    let idx_date = db.create_index("date_dim_pk", date_dim, 0);
    let idx_cast_movie = db.create_index("cast_info_movie_id", cast_info, 1);
    let idx_mc_movie = db.create_index("movie_companies_movie_id", movie_companies, 1);
    let idx_ct = db.create_index("company_type_pk", company_type, 0);

    BenchmarkDb {
        db,
        store_sales,
        catalog_returns,
        customer,
        customer_demographics,
        household_demographics,
        customer_address,
        date_dim,
        item,
        store,
        call_center,
        idx_customer,
        idx_cdemo,
        idx_hdemo,
        idx_caddr,
        idx_item,
        idx_store,
        idx_cc,
        idx_date,
        title,
        cast_info,
        movie_companies,
        company_type,
        idx_cast_movie,
        idx_mc_movie,
        idx_ct,
        n_dates,
        n_customers,
        n_cdemo,
        n_hdemo,
        n_caddr,
        n_items,
        n_stores,
        n_cc,
        n_titles,
        n_sales,
        n_returns,
        n_cast,
        filled_for: templates.to_vec(),
    }
}

/// A database under construction that inserts rows only into the tables
/// its templates read.
struct Filler<'t> {
    db: Database,
    templates: &'t [Template],
    /// Whether each table, by `TableId`, takes its rows.
    filled: Vec<bool>,
}

impl Filler<'_> {
    /// Whether a template of the build reads table `name`.
    fn reads(&self, name: &str) -> bool {
        self.templates.iter().any(|t| t.tables().contains(&name))
    }

    fn create_table(&mut self, name: &str, schema: Schema) -> TableId {
        self.filled.push(self.reads(name));
        self.db.create_table(name, schema)
    }

    /// Insert `row` if `table` takes rows; its values are drawn either way.
    fn insert(&mut self, table: TableId, row: &[Datum]) {
        if self.filled[table.0 as usize] {
            self.db.insert(table, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchmarkDb {
        build_benchmark(&GeneratorConfig {
            scale: 0.05,
            seed: 1,
        })
    }

    #[test]
    fn all_tables_populated() {
        let b = tiny();
        for t in [
            b.store_sales,
            b.catalog_returns,
            b.customer,
            b.customer_demographics,
            b.household_demographics,
            b.customer_address,
            b.date_dim,
            b.item,
            b.store,
            b.call_center,
            b.title,
            b.cast_info,
            b.movie_companies,
            b.company_type,
        ] {
            assert!(
                b.db.table_info(t).heap.tuple_count() > 0,
                "{} empty",
                b.db.table_info(t).name
            );
        }
    }

    #[test]
    fn a_build_for_one_template_is_the_whole_build_on_what_it_reads() {
        use crate::templates::sample_workload;
        use pythia_db::exec::execute;
        use pythia_sim::PageId;

        for seed in [7, 8] {
            let cfg = GeneratorConfig { scale: 0.05, seed };
            let whole = build_benchmark(&cfg);
            for t in Template::ALL {
                let part = build_for(&cfg, &[t]);
                let (w, p) = (&whole.db, &part.db);
                assert_eq!(p.file_lengths().len(), w.file_lengths().len(), "{t}");
                let reads = |table| t.tables().contains(&w.table_info(table).name.as_str());
                let same_pages = |obj| {
                    let file = w.object_file(obj);
                    assert_eq!(p.object_file(obj), file, "{t}: {}", w.object_name(obj));
                    assert_eq!(p.object_pages(obj), w.object_pages(obj), "{t}");
                    for page_no in 0..w.object_pages(obj) {
                        let pid = PageId::new(file, page_no);
                        assert!(p.disk.read(pid) == w.disk.read(pid), "{t}: {pid:?}");
                    }
                };
                for (i, (wt, pt)) in w.tables().iter().zip(p.tables()).enumerate() {
                    assert_eq!((pt.object, &pt.name), (wt.object, &wt.name), "{t}");
                    if reads(TableId(i as u32)) {
                        same_pages(wt.object);
                    } else {
                        assert_eq!(pt.heap.tuple_count(), 0, "{t}: {} holds rows", pt.name);
                    }
                }
                for idx in [
                    whole.idx_customer,
                    whole.idx_cdemo,
                    whole.idx_hdemo,
                    whole.idx_caddr,
                    whole.idx_item,
                    whole.idx_store,
                    whole.idx_cc,
                    whole.idx_date,
                    whole.idx_cast_movie,
                    whole.idx_mc_movie,
                    whole.idx_ct,
                ] {
                    if reads(w.index_info(idx).table) {
                        same_pages(idx);
                    }
                }
                let queries = sample_workload(&part, t, 20, seed);
                for (q, wq) in queries.iter().zip(sample_workload(&whole, t, 20, seed)) {
                    assert_eq!(q.plan, wq.plan, "{t}");
                    let trace = execute(&q.plan, p).1;
                    assert_eq!(trace.events.bytes(), execute(&q.plan, w).1.events.bytes());
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build_benchmark(&GeneratorConfig {
            scale: 0.05,
            seed: 7,
        });
        let b = build_benchmark(&GeneratorConfig {
            scale: 0.05,
            seed: 7,
        });
        assert_eq!(a.db.disk.total_pages(), b.db.disk.total_pages());
        // Spot-check a row.
        let ra = a.db.table_info(a.store_sales).heap.read_page(&a.db.disk, 0);
        let rb = b.db.table_info(b.store_sales).heap.read_page(&b.db.disk, 0);
        assert_eq!(ra, rb);
    }

    #[test]
    fn scale_changes_size() {
        let small = build_benchmark(&GeneratorConfig {
            scale: 0.05,
            seed: 1,
        });
        let big = build_benchmark(&GeneratorConfig {
            scale: 0.1,
            seed: 1,
        });
        assert!(big.db.disk.total_pages() > small.db.disk.total_pages());
    }

    #[test]
    fn sales_customer_correlates_with_date() {
        let b = tiny();
        // For sales in the first 10% of dates, customers should mostly be in
        // the low customer-key range.
        let heap = &b.db.table_info(b.store_sales).heap;
        let layout = heap.layout();
        let mut low_date_low_cust = 0;
        let mut low_date_total = 0;
        for (_, rec) in heap.records(&b.db.disk) {
            let date = layout.int_at(rec, 1).unwrap();
            let cust = layout.int_at(rec, 2).unwrap();
            if date < b.n_dates / 10 {
                low_date_total += 1;
                if cust < b.n_customers / 5 {
                    low_date_low_cust += 1;
                }
            }
        }
        assert!(low_date_total > 0);
        assert!(
            low_date_low_cust as f64 > 0.7 * low_date_total as f64,
            "correlation too weak: {low_date_low_cust}/{low_date_total}"
        );
    }

    #[test]
    fn item_popularity_is_skewed() {
        let b = tiny();
        let heap = &b.db.table_info(b.store_sales).heap;
        let mut counts = std::collections::HashMap::new();
        for (_, rec) in heap.records(&b.db.disk) {
            *counts
                .entry(heap.layout().int_at(rec, 5).unwrap())
                .or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let distinct = counts.len();
        // Heavy head: most popular item appears far more than average.
        let avg = b.n_sales as f64 / distinct as f64;
        assert!(max as f64 > 8.0 * avg, "max {max}, avg {avg:.1}");
    }

    #[test]
    fn cast_info_grouped_by_movie() {
        let b = tiny();
        let heap = &b.db.table_info(b.cast_info).heap;
        let movies: Vec<i64> = heap
            .records(&b.db.disk)
            .map(|(_, rec)| heap.layout().int_at(rec, 1).unwrap())
            .collect();
        // Non-decreasing movie ids (grouped storage).
        assert!(movies.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn indexes_resolve_probes() {
        let b = tiny();
        let idx = b.db.index_info(b.idx_customer);
        let hits = idx.btree.search(&b.db.disk, 5, &mut |_, _| {});
        assert_eq!(hits.len(), 1, "customer_sk is unique");
        let ci = b.db.index_info(b.idx_cast_movie);
        let hits = ci.btree.search(&b.db.disk, 3, &mut |_, _| {});
        assert!(!hits.is_empty(), "every movie has cast");
    }
}
