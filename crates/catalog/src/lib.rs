//! # moqo-catalog — database catalog substrate
//!
//! The paper models a query as a set of tables to be joined (§3); what the
//! cost models need beyond that is a *catalog*: per-table cardinalities and
//! a join graph annotating table pairs with predicate selectivities. This
//! crate provides that substrate: [`Catalog`] (tables + join edges),
//! [`CatalogBuilder`], and [`Query`] (a validated table set over a catalog).
//!
//! Selectivities between *sets* of tables follow the textbook independence
//! assumption: the joint selectivity of joining table set `A` with table set
//! `B` is the product of the edge selectivities crossing the cut — table
//! pairs without a join predicate contribute factor 1 (cross product), which
//! realizes the paper's *unconstrained* bushy plan space (§6.1).

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use moqo_core::tables::{TableId, TableSet, MAX_TABLES};

/// Metadata of one base table.
#[derive(Clone, Debug)]
pub struct TableMeta {
    /// Human-readable table name.
    pub name: String,
    /// Base cardinality in rows.
    pub rows: f64,
}

/// A join-graph edge: a predicate between two tables with a selectivity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinEdge {
    /// One endpoint.
    pub a: TableId,
    /// The other endpoint.
    pub b: TableId,
    /// Predicate selectivity in `(0, 1]`.
    pub selectivity: f64,
}

/// A database catalog: tables with cardinalities plus a join graph.
#[derive(Clone, Debug)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    /// Adjacency list: `adj[t]` holds `(neighbor, selectivity)` pairs.
    adj: Vec<Vec<(TableId, f64)>>,
    /// `neighbor_masks[t]`: the bits of `adj[t]`'s neighbours, so
    /// [`Catalog::joint_selectivity`] skips a table with no edge across
    /// the cut without walking its list.
    neighbor_masks: Vec<u128>,
    edges: Vec<JoinEdge>,
    /// Process-unique id assigned by [`CatalogBuilder::build`]; keys the
    /// [`Catalog::joint_selectivity`] memo. A catalog is immutable once
    /// built, so a clone may share its id.
    id: u64,
}

/// Source of [`Catalog`] ids. Starts at 1 so that no catalog matches the
/// empty memo slot.
static NEXT_CATALOG_ID: AtomicU64 = AtomicU64::new(1);

/// One remembered `joint_selectivity` answer:
/// `(catalog id, first side bits, second side bits, selectivity)`.
type MemoEntry = (u64, u128, u128, f64);

/// The per-thread `joint_selectivity` memo (see that method).
struct SelectivityMemo {
    /// The last answer, keyed by the sides in call order.
    call: Cell<MemoEntry>,
    /// The last walk's answer, keyed by the sides smaller first.
    sorted: Cell<MemoEntry>,
}

thread_local! {
    static SELECTIVITY_MEMO: SelectivityMemo = const {
        SelectivityMemo {
            call: Cell::new((0, 0, 0, 1.0)),
            sorted: Cell::new((0, 0, 0, 1.0)),
        }
    };
}

impl Default for Catalog {
    /// An empty catalog (with its own id, like every built catalog).
    fn default() -> Self {
        CatalogBuilder::default().build()
    }
}

impl Catalog {
    /// Starts building a catalog.
    pub fn builder() -> CatalogBuilder {
        CatalogBuilder::default()
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Metadata of table `t`.
    ///
    /// # Panics
    /// Panics if `t` is not a table of this catalog.
    pub fn table(&self, t: TableId) -> &TableMeta {
        &self.tables[t.index()]
    }

    /// Base cardinality of table `t` in rows.
    pub fn rows(&self, t: TableId) -> f64 {
        self.tables[t.index()].rows
    }

    /// All join edges.
    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    /// The `(neighbor, selectivity)` pairs of table `t`.
    pub fn neighbors(&self, t: TableId) -> &[(TableId, f64)] {
        &self.adj[t.index()]
    }

    /// Selectivity of the predicate between `a` and `b`; `1.0` when no
    /// predicate exists (cross product).
    pub fn selectivity(&self, a: TableId, b: TableId) -> f64 {
        self.adj[a.index()]
            .iter()
            .find(|(n, _)| *n == b)
            .map_or(1.0, |(_, s)| *s)
    }

    /// Joint selectivity of joining table set `a` with table set `b`:
    /// the product of edge selectivities crossing the cut (independence
    /// assumption).
    ///
    /// The walk goes over the neighbours of the smaller side (the first
    /// one on a tie), multiplying in adjacency order. Each thread keeps a
    /// two-level memo keyed by this catalog's id. Every operator and
    /// mutation a cost model tries for one operand pair asks the same
    /// question, so only the first call walks the join graph:
    ///
    /// 1. the last answer, keyed by the sides in call order, checked
    ///    before anything else (no set sizes are counted on a hit);
    /// 2. the last walk, keyed by the sides smaller first, which also
    ///    answers the same pair asked in the other order.
    ///
    /// Both keys determine the order the product is taken in, so a hit
    /// returns the bits the walk would. On a full miss the walk skips every
    /// table of the smaller side whose neighbour mask misses the larger
    /// side; such a table contributes no factor, so the product is
    /// unchanged.
    ///
    /// # Panics
    /// Panics in debug builds if the sets overlap.
    pub fn joint_selectivity(&self, a: TableSet, b: TableSet) -> f64 {
        debug_assert!(a.is_disjoint(b), "joint selectivity of overlapping sets");
        SELECTIVITY_MEMO.with(|memo| {
            let (id, x, y, sel) = memo.call.get();
            if (id, x, y) == (self.id, a.bits(), b.bits()) {
                return sel;
            }
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            let (id, s, l, sel) = memo.sorted.get();
            let sel = if (id, s, l) == (self.id, small.bits(), large.bits()) {
                sel
            } else {
                let sel = self.crossing_product(small, large);
                memo.sorted.set((self.id, small.bits(), large.bits(), sel));
                sel
            };
            memo.call.set((self.id, a.bits(), b.bits(), sel));
            sel
        })
    }

    /// The product of the selectivities of the edges from `small` into
    /// `large`, walking `small`'s tables in order and each table's
    /// neighbours in adjacency order.
    fn crossing_product(&self, small: TableSet, large: TableSet) -> f64 {
        let mut sel = 1.0;
        for t in small.iter() {
            if self.neighbor_masks[t.index()] & large.bits() == 0 {
                continue;
            }
            for &(n, s) in &self.adj[t.index()] {
                if large.contains(n) {
                    sel *= s;
                }
            }
        }
        sel
    }

    /// The set of all tables in the catalog.
    pub fn all_tables(&self) -> TableSet {
        TableSet::prefix(self.tables.len())
    }

    /// A stable 64-bit fingerprint of the catalog's contents (table names,
    /// cardinalities, and join edges with selectivities, in declaration
    /// order). Catalogs built through the same construction sequence get
    /// the same fingerprint; the hash is order-sensitive, so logically
    /// identical catalogs assembled in a different table/edge order
    /// fingerprint differently (a safe false-negative for cache keying —
    /// never a false sharing). This keys caches that share optimizer
    /// state *across queries over the same database* — partial plans
    /// costed against one catalog are only meaningful for sessions seeing
    /// identical statistics. Cost-model configuration is *not* part of the
    /// catalog;
    /// combine this with a model discriminator when the cache key must
    /// distinguish cost semantics (see `moqo-service`).
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical byte rendering.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.tables.len() as u64).to_le_bytes());
        for t in &self.tables {
            eat(t.name.as_bytes());
            eat(&[0xff]); // name terminator
            eat(&t.rows.to_bits().to_le_bytes());
        }
        eat(&(self.edges.len() as u64).to_le_bytes());
        for e in &self.edges {
            eat(&[e.a.index() as u8, e.b.index() as u8]);
            eat(&e.selectivity.to_bits().to_le_bytes());
        }
        h
    }

    /// Whether the join graph restricted to `q` is connected (queries over
    /// disconnected sets require cross products).
    pub fn is_connected(&self, q: TableSet) -> bool {
        let Some(start) = q.first() else {
            return true;
        };
        let mut seen = TableSet::singleton(start);
        let mut stack = vec![start];
        while let Some(t) = stack.pop() {
            for &(n, _) in &self.adj[t.index()] {
                if q.contains(n) && !seen.contains(n) {
                    seen = seen.with(n);
                    stack.push(n);
                }
            }
        }
        seen == q
    }
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Catalog: {} tables, {} edges",
            self.tables.len(),
            self.edges.len()
        )?;
        for (i, t) in self.tables.iter().enumerate() {
            writeln!(f, "  T{i} {} ({} rows)", t.name, t.rows)?;
        }
        Ok(())
    }
}

/// Incremental [`Catalog`] construction.
#[derive(Default)]
pub struct CatalogBuilder {
    tables: Vec<TableMeta>,
    edges: Vec<JoinEdge>,
}

impl CatalogBuilder {
    /// Adds a table, returning its id.
    ///
    /// # Panics
    /// Panics if the catalog is full ([`MAX_TABLES`]) or `rows` is not a
    /// positive finite number.
    pub fn add_table(&mut self, name: impl Into<String>, rows: f64) -> TableId {
        assert!(self.tables.len() < MAX_TABLES, "catalog full");
        assert!(
            rows.is_finite() && rows >= 1.0,
            "invalid cardinality {rows}"
        );
        let id = TableId::new(self.tables.len());
        self.tables.push(TableMeta {
            name: name.into(),
            rows,
        });
        id
    }

    /// Adds a join predicate between `a` and `b` with the given selectivity.
    ///
    /// # Panics
    /// Panics if the selectivity is outside `(0, 1]`, the endpoints
    /// coincide, or an edge between the pair already exists.
    pub fn add_join(&mut self, a: TableId, b: TableId, selectivity: f64) -> &mut Self {
        assert!(
            selectivity > 0.0 && selectivity <= 1.0,
            "selectivity {selectivity} outside (0, 1]"
        );
        assert_ne!(a, b, "self-join edge");
        assert!(a.index() < self.tables.len() && b.index() < self.tables.len());
        assert!(
            !self
                .edges
                .iter()
                .any(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a)),
            "duplicate edge {a}-{b}"
        );
        self.edges.push(JoinEdge { a, b, selectivity });
        self
    }

    /// Finalizes the catalog.
    pub fn build(self) -> Catalog {
        let mut adj = vec![Vec::new(); self.tables.len()];
        for e in &self.edges {
            adj[e.a.index()].push((e.b, e.selectivity));
            adj[e.b.index()].push((e.a, e.selectivity));
        }
        let neighbor_masks = adj
            .iter()
            .map(|ns| ns.iter().fold(0u128, |m, (n, _)| m | 1u128 << n.index()))
            .collect();
        Catalog {
            tables: self.tables,
            adj,
            neighbor_masks,
            edges: self.edges,
            id: NEXT_CATALOG_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// A validated query: a non-empty set of catalog tables to join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    tables: TableSet,
}

impl Query {
    /// A query joining all tables of `catalog`.
    ///
    /// # Panics
    /// Panics if the catalog is empty.
    pub fn all(catalog: &Catalog) -> Self {
        assert!(catalog.num_tables() > 0, "empty catalog");
        Query {
            tables: catalog.all_tables(),
        }
    }

    /// A query over an explicit table set.
    ///
    /// # Errors
    /// Fails if the set is empty or references tables outside the catalog.
    pub fn new(catalog: &Catalog, tables: TableSet) -> Result<Self, QueryError> {
        if tables.is_empty() {
            return Err(QueryError::Empty);
        }
        if !tables.is_subset(catalog.all_tables()) {
            return Err(QueryError::UnknownTables(
                tables.difference(catalog.all_tables()),
            ));
        }
        Ok(Query { tables })
    }

    /// The tables to join.
    pub fn tables(&self) -> TableSet {
        self.tables
    }

    /// Number of tables joined (the paper's `n`).
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the query is empty (never true for constructed queries).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// Query construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The table set was empty.
    Empty,
    /// The table set references tables not in the catalog.
    UnknownTables(TableSet),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "query has no tables"),
            QueryError::UnknownTables(t) => write!(f, "unknown tables {t}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A serializable catalog description: the interchange format accepted by
/// the `optimize` CLI and any embedding application. Mirrors exactly what
/// [`CatalogBuilder`] consumes — table names with cardinalities plus join
/// edges with selectivities, tables referenced by index.
///
/// ```
/// use moqo_catalog::{CatalogSpec, TableSpec, JoinSpec};
/// let spec = CatalogSpec {
///     tables: vec![
///         TableSpec { name: "orders".into(), rows: 1_000_000.0 },
///         TableSpec { name: "customers".into(), rows: 50_000.0 },
///     ],
///     joins: vec![JoinSpec { a: 0, b: 1, selectivity: 1.0 / 50_000.0 }],
/// };
/// let catalog = spec.build().unwrap();
/// assert_eq!(catalog.num_tables(), 2);
/// ```
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct CatalogSpec {
    /// Tables in id order.
    pub tables: Vec<TableSpec>,
    /// Join predicates.
    #[serde(default)]
    pub joins: Vec<JoinSpec>,
}

/// One table of a [`CatalogSpec`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Base cardinality in rows (positive).
    pub rows: f64,
}

/// One join predicate of a [`CatalogSpec`], endpoints as table indices.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct JoinSpec {
    /// First endpoint (index into `tables`).
    pub a: usize,
    /// Second endpoint (index into `tables`).
    pub b: usize,
    /// Predicate selectivity in `(0, 1]`.
    pub selectivity: f64,
}

/// Errors validating a [`CatalogSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec contains no tables.
    NoTables,
    /// Too many tables for the optimizer's table-set width.
    TooManyTables(usize),
    /// A table has a non-positive or non-finite cardinality.
    BadCardinality(String, f64),
    /// A join references a table index out of range.
    BadJoinEndpoint(usize),
    /// A join's selectivity is outside `(0, 1]`.
    BadSelectivity(f64),
    /// Two joins connect the same table pair, or a join is a self-loop.
    BadJoinPair(usize, usize),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoTables => write!(f, "catalog spec has no tables"),
            SpecError::TooManyTables(n) => {
                write!(f, "{n} tables exceed the maximum of {MAX_TABLES}")
            }
            SpecError::BadCardinality(name, rows) => {
                write!(f, "table '{name}' has invalid cardinality {rows}")
            }
            SpecError::BadJoinEndpoint(i) => write!(f, "join references table index {i}"),
            SpecError::BadSelectivity(s) => write!(f, "selectivity {s} outside (0, 1]"),
            SpecError::BadJoinPair(a, b) => {
                write!(f, "invalid or duplicate join between tables {a} and {b}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl CatalogSpec {
    /// Extracts the spec of an existing catalog (for archiving workloads).
    pub fn from_catalog(catalog: &Catalog) -> Self {
        CatalogSpec {
            tables: (0..catalog.num_tables())
                .map(|i| {
                    let meta = catalog.table(TableId::new(i));
                    TableSpec {
                        name: meta.name.clone(),
                        rows: meta.rows,
                    }
                })
                .collect(),
            joins: catalog
                .edges()
                .iter()
                .map(|e| JoinSpec {
                    a: e.a.index(),
                    b: e.b.index(),
                    selectivity: e.selectivity,
                })
                .collect(),
        }
    }

    /// Validates the spec and builds the catalog.
    pub fn build(&self) -> Result<Catalog, SpecError> {
        if self.tables.is_empty() {
            return Err(SpecError::NoTables);
        }
        if self.tables.len() > MAX_TABLES {
            return Err(SpecError::TooManyTables(self.tables.len()));
        }
        for t in &self.tables {
            if !t.rows.is_finite() || t.rows < 1.0 {
                return Err(SpecError::BadCardinality(t.name.clone(), t.rows));
            }
        }
        let mut seen_pairs = std::collections::HashSet::new();
        for j in &self.joins {
            if j.a >= self.tables.len() {
                return Err(SpecError::BadJoinEndpoint(j.a));
            }
            if j.b >= self.tables.len() {
                return Err(SpecError::BadJoinEndpoint(j.b));
            }
            if j.a == j.b || !seen_pairs.insert((j.a.min(j.b), j.a.max(j.b))) {
                return Err(SpecError::BadJoinPair(j.a, j.b));
            }
            if !(j.selectivity > 0.0 && j.selectivity <= 1.0) {
                return Err(SpecError::BadSelectivity(j.selectivity));
            }
        }
        let mut b = CatalogBuilder::default();
        for t in &self.tables {
            b.add_table(t.name.clone(), t.rows);
        }
        for j in &self.joins {
            b.add_join(TableId::new(j.a), TableId::new(j.b), j.selectivity);
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        let ids: Vec<TableId> = (0..n)
            .map(|i| b.add_table(format!("t{i}"), 100.0 * (i + 1) as f64))
            .collect();
        for w in ids.windows(2) {
            b.add_join(w[0], w[1], 0.01);
        }
        b.build()
    }

    #[test]
    fn builder_round_trip() {
        let c = chain_catalog(4);
        assert_eq!(c.num_tables(), 4);
        assert_eq!(c.edges().len(), 3);
        assert_eq!(c.rows(TableId::new(2)), 300.0);
        assert_eq!(c.table(TableId::new(0)).name, "t0");
        assert_eq!(c.neighbors(TableId::new(1)).len(), 2);
        assert_eq!(c.all_tables(), TableSet::prefix(4));
    }

    #[test]
    fn pairwise_selectivity() {
        let c = chain_catalog(4);
        assert_eq!(c.selectivity(TableId::new(0), TableId::new(1)), 0.01);
        assert_eq!(c.selectivity(TableId::new(1), TableId::new(0)), 0.01);
        assert_eq!(c.selectivity(TableId::new(0), TableId::new(2)), 1.0);
    }

    #[test]
    fn joint_selectivity_multiplies_crossing_edges() {
        let c = chain_catalog(4);
        // Cut {0,1} | {2,3}: only edge 1-2 crosses.
        let a = TableSet::from_bits(0b0011);
        let b = TableSet::from_bits(0b1100);
        assert!((c.joint_selectivity(a, b) - 0.01).abs() < 1e-15);
        // Cut {0,2} | {1,3}: edges 0-1, 1-2, 2-3 all cross.
        let a = TableSet::from_bits(0b0101);
        let b = TableSet::from_bits(0b1010);
        assert!((c.joint_selectivity(a, b) - 0.01f64.powi(3)).abs() < 1e-18);
    }

    #[test]
    fn joint_selectivity_is_symmetric() {
        let c = chain_catalog(6);
        let a = TableSet::from_bits(0b010110);
        let b = TableSet::from_bits(0b101001);
        assert!((c.joint_selectivity(a, b) - c.joint_selectivity(b, a)).abs() < 1e-18);
    }

    /// The join-graph walk the memo must reproduce bit for bit, written out
    /// independently of [`Catalog::joint_selectivity`].
    fn uncached_selectivity(c: &Catalog, a: TableSet, b: TableSet) -> f64 {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut sel = 1.0;
        for t in small.iter() {
            for &(n, s) in c.neighbors(t) {
                if large.contains(n) {
                    sel *= s;
                }
            }
        }
        sel
    }

    /// A 12-table graph holding the pairs `keep` accepts, with irregular
    /// selectivities, so the order of the product shows in the low bits.
    fn graph_catalog(scale: f64, keep: fn(usize, usize) -> bool) -> Catalog {
        let mut b = Catalog::builder();
        let ids: Vec<TableId> = (0..12)
            .map(|i| b.add_table(format!("t{i}"), 10.0 + i as f64))
            .collect();
        for i in 0..12 {
            for j in (i + 1)..12 {
                if keep(i, j) {
                    let sel = scale / (3.0 + (i * 13 + j * 5) as f64 * 0.37);
                    b.add_join(ids[i], ids[j], sel);
                }
            }
        }
        b.build()
    }

    /// Three quarters of all pairs joined.
    fn dense_catalog(scale: f64) -> Catalog {
        graph_catalog(scale, |i, j| (i * 7 + j * 3) % 4 != 0)
    }

    /// The complement of [`dense_catalog`]'s graph: most tables of a side
    /// have no edge into the other side.
    fn sparse_catalog(scale: f64) -> Catalog {
        graph_catalog(scale, |i, j| (i * 7 + j * 3) % 4 == 0)
    }

    /// A star around table 0 whose edges are declared hub-last, so every
    /// leaf lists the hub and the hub lists every leaf.
    fn star_catalog() -> Catalog {
        let mut b = Catalog::builder();
        let ids: Vec<TableId> = (0..9)
            .map(|i| b.add_table(format!("s{i}"), 50.0 + i as f64))
            .collect();
        for (k, &leaf) in ids[1..].iter().enumerate() {
            b.add_join(leaf, ids[0], 0.5 / (k + 2) as f64);
        }
        b.build()
    }

    #[test]
    fn neighbor_masks_agree_with_adjacency() {
        for c in [dense_catalog(1.0), sparse_catalog(1.0), star_catalog()] {
            for t in 0..c.num_tables() {
                for u in 0..c.num_tables() {
                    let listed = c
                        .neighbors(TableId::new(t))
                        .iter()
                        .any(|(n, _)| n.index() == u);
                    let masked = c.neighbor_masks[t] & (1u128 << u) != 0;
                    assert_eq!(masked, listed, "table {t}, neighbour {u}");
                }
            }
        }
    }

    #[test]
    fn two_level_memo_matches_uncached_walk() {
        let catalogs = [dense_catalog(1.0), sparse_catalog(0.7)];
        // Unequal sides, equal sides (whose two orders round apart on the
        // dense graph), a pair with no crossing edge on the sparse graph.
        let pairs = [
            (0b0000_0101_0011, 0b1110_1000_0100),
            (0b0000_1011_0101, 0b0101_0100_1010),
            (0b0000_0000_0001, 0b0000_0000_0110),
        ]
        .map(|(a, b)| (TableSet::from_bits(a), TableSet::from_bits(b)));
        let (a, b) = pairs[1];
        assert_ne!(
            uncached_selectivity(&catalogs[0], a, b).to_bits(),
            uncached_selectivity(&catalogs[0], b, a).to_bits()
        );
        let mut calls = Vec::new();
        for &(a, b) in &pairs {
            calls.extend([(a, b), (a, b), (b, a), (a, b), (b, a), (b, a)]);
        }
        // Unrelated calls between repeats of the first pair.
        calls.extend([
            pairs[0],
            pairs[2],
            pairs[0],
            (pairs[0].1, pairs[0].0),
            pairs[0],
        ]);
        let check = |k: usize, a: TableSet, b: TableSet| {
            let c = &catalogs[k];
            assert_eq!(
                c.joint_selectivity(a, b).to_bits(),
                uncached_selectivity(c, a, b).to_bits(),
                "catalog {k}, {a} with {b}"
            );
        };
        // One catalog at a time, then both catalogs on every call.
        for k in 0..catalogs.len() {
            for &(a, b) in &calls {
                check(k, a, b);
            }
        }
        for &(a, b) in &calls {
            for k in 0..catalogs.len() {
                check(k, a, b);
            }
        }
    }

    #[test]
    fn memo_keeps_catalogs_with_equal_tables_apart() {
        let (c1, c2) = (dense_catalog(1.0), dense_catalog(0.5));
        let a = TableSet::from_bits(0b0000_0101_0011);
        let b = TableSet::from_bits(0b1110_1000_0100);
        let (v1, v2) = (
            uncached_selectivity(&c1, a, b),
            uncached_selectivity(&c2, a, b),
        );
        assert_ne!(v1.to_bits(), v2.to_bits());
        for _ in 0..3 {
            assert_eq!(c1.joint_selectivity(a, b).to_bits(), v1.to_bits());
            assert_eq!(c2.joint_selectivity(a, b).to_bits(), v2.to_bits());
        }
        // A clone is the same immutable catalog and shares the memo slot.
        let clone = c1.clone();
        assert_eq!(clone.joint_selectivity(a, b).to_bits(), v1.to_bits());
        assert_eq!(c2.joint_selectivity(a, b).to_bits(), v2.to_bits());
    }

    #[test]
    fn memo_honours_argument_order_for_equal_size_sides() {
        let c = dense_catalog(1.0);
        let a = TableSet::from_bits(0b0000_1011_0101);
        let b = TableSet::from_bits(0b0101_0100_1010);
        assert_eq!(a.len(), b.len());
        let (ab, ba) = (
            uncached_selectivity(&c, a, b),
            uncached_selectivity(&c, b, a),
        );
        // The two walks multiply in different orders and round apart.
        assert_ne!(ab.to_bits(), ba.to_bits());
        for _ in 0..2 {
            assert_eq!(c.joint_selectivity(a, b).to_bits(), ab.to_bits());
            assert_eq!(c.joint_selectivity(a, b).to_bits(), ab.to_bits());
            assert_eq!(c.joint_selectivity(b, a).to_bits(), ba.to_bits());
            assert_eq!(c.joint_selectivity(b, a).to_bits(), ba.to_bits());
        }
    }

    #[test]
    fn memo_answers_agree_across_threads() {
        let c = std::sync::Arc::new(dense_catalog(1.0));
        let pairs: Vec<(TableSet, TableSet)> = (1u128..200)
            .map(|i| {
                let a = TableSet::from_bits((i * 2_654_435_761) & 0xfff);
                let b = TableSet::from_bits(!a.bits() & (i * 40_503) & 0xfff);
                (a, b)
            })
            .collect();
        let expected: Vec<u64> = pairs
            .iter()
            .map(|&(a, b)| uncached_selectivity(&c, a, b).to_bits())
            .collect();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (c, pairs) = (c.clone(), pairs.clone());
                std::thread::spawn(move || {
                    pairs
                        .iter()
                        .map(|&(a, b)| {
                            c.joint_selectivity(a, b);
                            c.joint_selectivity(a, b).to_bits()
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("worker panicked"), expected);
        }
    }

    #[test]
    fn connectivity() {
        let c = chain_catalog(5);
        assert!(c.is_connected(TableSet::prefix(5)));
        assert!(c.is_connected(TableSet::from_bits(0b00110)));
        // {0, 2} is not connected on a chain.
        assert!(!c.is_connected(TableSet::from_bits(0b00101)));
        assert!(c.is_connected(TableSet::singleton(TableId::new(3))));
        assert!(c.is_connected(TableSet::empty()));
    }

    #[test]
    fn query_validation() {
        let c = chain_catalog(3);
        assert_eq!(Query::all(&c).len(), 3);
        assert_eq!(Query::new(&c, TableSet::empty()), Err(QueryError::Empty));
        let q = Query::new(&c, TableSet::prefix(2)).unwrap();
        assert_eq!(q.tables(), TableSet::prefix(2));
        assert!(!q.is_empty());
        let err = Query::new(&c, TableSet::from_bits(0b1001)).unwrap_err();
        assert_eq!(err, QueryError::UnknownTables(TableSet::from_bits(0b1000)));
        assert!(err.to_string().contains("unknown tables"));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let mut b = Catalog::builder();
        let t0 = b.add_table("a", 10.0);
        let t1 = b.add_table("b", 10.0);
        b.add_join(t0, t1, 0.5);
        b.add_join(t1, t0, 0.5);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn invalid_selectivity_rejected() {
        let mut b = Catalog::builder();
        let t0 = b.add_table("a", 10.0);
        let t1 = b.add_table("b", 10.0);
        b.add_join(t0, t1, 0.0);
    }

    #[test]
    fn display_is_informative() {
        let c = chain_catalog(2);
        let s = c.to_string();
        assert!(s.contains("2 tables"));
        assert!(s.contains("t1"));
    }

    proptest::proptest! {
        /// Joint selectivity decomposes multiplicatively over disjoint unions:
        /// sel(A ∪ B, C) = sel(A, C) · sel(B, C).
        #[test]
        fn joint_selectivity_decomposes(bits_a in 0u16..64, bits_b in 0u16..64, bits_c in 0u16..64) {
            let c = chain_catalog(6);
            let a = TableSet::from_bits(bits_a as u128);
            let b = TableSet::from_bits((bits_b as u128) & !(bits_a as u128));
            let cc = TableSet::from_bits((bits_c as u128) & !(bits_a as u128) & !(b.bits()));
            let lhs = c.joint_selectivity(a.union(b), cc);
            let rhs = c.joint_selectivity(a, cc) * c.joint_selectivity(b, cc);
            proptest::prop_assert!((lhs - rhs).abs() <= 1e-12 * lhs.max(rhs).max(1.0));
        }
    }

    proptest::proptest! {
        /// The memoized joint selectivity equals the uncached walk bit for
        /// bit, on a miss, on the repeat call that hits, and in the other
        /// order, on a dense graph and on a sparse one.
        #[test]
        fn memoized_selectivity_matches_uncached(bits_a in 0u16..4096, bits_b in 0u16..4096, scale in 0.1f64..1.0, sparse in 0u8..2) {
            // The sparse graph leaves many tables with no crossing edge.
            let c = if sparse == 1 { sparse_catalog(scale) } else { dense_catalog(scale) };
            let a = TableSet::from_bits(bits_a as u128);
            let b = TableSet::from_bits((bits_b as u128) & !(bits_a as u128));
            let expected = uncached_selectivity(&c, a, b).to_bits();
            proptest::prop_assert_eq!(c.joint_selectivity(a, b).to_bits(), expected);
            proptest::prop_assert_eq!(c.joint_selectivity(a, b).to_bits(), expected);
            let reversed = uncached_selectivity(&c, b, a).to_bits();
            proptest::prop_assert_eq!(c.joint_selectivity(b, a).to_bits(), reversed);
        }
    }

    #[test]
    fn fingerprint_distinguishes_catalog_contents() {
        let a = chain_catalog(4);
        let b = chain_catalog(4);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same contents, same fp");
        assert_ne!(
            a.fingerprint(),
            chain_catalog(5).fingerprint(),
            "different table count"
        );
        // Same shape, one selectivity differs.
        let mut builder = Catalog::builder();
        let ids: Vec<TableId> = (0..4)
            .map(|i| builder.add_table(format!("t{i}"), 100.0 * (i + 1) as f64))
            .collect();
        for w in ids.windows(2) {
            builder.add_join(w[0], w[1], 0.02);
        }
        assert_ne!(a.fingerprint(), builder.build().fingerprint());
        // Same structure, one table renamed.
        let mut builder = Catalog::builder();
        let ids: Vec<TableId> = (0..4)
            .map(|i| builder.add_table(format!("u{i}"), 100.0 * (i + 1) as f64))
            .collect();
        for w in ids.windows(2) {
            builder.add_join(w[0], w[1], 0.01);
        }
        assert_ne!(a.fingerprint(), builder.build().fingerprint());
    }

    #[test]
    fn spec_round_trips_through_catalog() {
        let c = chain_catalog(5);
        let spec = CatalogSpec::from_catalog(&c);
        assert_eq!(spec.tables.len(), 5);
        assert_eq!(spec.joins.len(), 4);
        let rebuilt = spec.build().expect("valid spec");
        assert_eq!(rebuilt.num_tables(), c.num_tables());
        for i in 0..5 {
            let t = TableId::new(i);
            assert_eq!(rebuilt.rows(t), c.rows(t));
            assert_eq!(rebuilt.table(t).name, c.table(t).name);
        }
        for (e1, e2) in rebuilt.edges().iter().zip(c.edges()) {
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn spec_validation_rejects_bad_inputs() {
        let empty = CatalogSpec {
            tables: vec![],
            joins: vec![],
        };
        assert_eq!(empty.build().unwrap_err(), SpecError::NoTables);

        let bad_rows = CatalogSpec {
            tables: vec![TableSpec {
                name: "t".into(),
                rows: -5.0,
            }],
            joins: vec![],
        };
        assert!(matches!(
            bad_rows.build().unwrap_err(),
            SpecError::BadCardinality(_, _)
        ));

        let two = || {
            vec![
                TableSpec {
                    name: "a".into(),
                    rows: 10.0,
                },
                TableSpec {
                    name: "b".into(),
                    rows: 10.0,
                },
            ]
        };
        let bad_endpoint = CatalogSpec {
            tables: two(),
            joins: vec![JoinSpec {
                a: 0,
                b: 7,
                selectivity: 0.5,
            }],
        };
        assert_eq!(
            bad_endpoint.build().unwrap_err(),
            SpecError::BadJoinEndpoint(7)
        );

        let self_loop = CatalogSpec {
            tables: two(),
            joins: vec![JoinSpec {
                a: 1,
                b: 1,
                selectivity: 0.5,
            }],
        };
        assert_eq!(self_loop.build().unwrap_err(), SpecError::BadJoinPair(1, 1));

        let dup = CatalogSpec {
            tables: two(),
            joins: vec![
                JoinSpec {
                    a: 0,
                    b: 1,
                    selectivity: 0.5,
                },
                JoinSpec {
                    a: 1,
                    b: 0,
                    selectivity: 0.2,
                },
            ],
        };
        assert_eq!(dup.build().unwrap_err(), SpecError::BadJoinPair(1, 0));

        let bad_sel = CatalogSpec {
            tables: two(),
            joins: vec![JoinSpec {
                a: 0,
                b: 1,
                selectivity: 1.5,
            }],
        };
        assert_eq!(bad_sel.build().unwrap_err(), SpecError::BadSelectivity(1.5));
    }

    #[test]
    fn spec_errors_display() {
        assert!(SpecError::NoTables.to_string().contains("no tables"));
        assert!(SpecError::TooManyTables(999).to_string().contains("999"));
        assert!(SpecError::BadSelectivity(2.0).to_string().contains("2"));
    }
}
