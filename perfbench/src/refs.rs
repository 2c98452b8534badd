//! Stored reference frontiers: a line-based text format holding each
//! reference as a plan DAG of table and operator ids, re-costed through the
//! current cost model when loaded.
//!
//! ```text
//! entry <name> key=value ...
//! s <table> <scan op>            node: scan
//! j <outer node> <inner node> <join op>   node: join of two earlier nodes
//! r <node> <node> ...            the reference plans
//! end
//! ```
//!
//! Lines starting with `#` are comments. Node numbers are per entry, in
//! order of appearance.

use std::collections::{BTreeMap, HashMap};

use moqo_catalog::Catalog;
use moqo_core::model::{CostModel, JoinOpId, ScanOpId};
use moqo_core::plan::{Plan, PlanKind, PlanRef};
use moqo_core::tables::{TableId, TableSet};
use moqo_core::CostVector;
use moqo_metrics::epsilon::pareto_filter;

/// One node of a stored plan DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Node {
    /// Scan of a table with a scan operator.
    Scan(usize, u16),
    /// Join of two earlier nodes with a join operator.
    Join(usize, usize, u16),
}

/// One stored reference frontier with its metadata.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Entry {
    /// Entry name (a query-large query or a serve template).
    pub name: String,
    /// Metadata fields (`key=value`).
    pub fields: BTreeMap<String, String>,
    /// Plan DAG nodes; children precede parents.
    pub nodes: Vec<Node>,
    /// Reference plans, as node numbers.
    pub roots: Vec<usize>,
}

impl Entry {
    /// An entry holding `plans` as a DAG with shared subtrees stored once.
    pub fn from_plans(name: &str, plans: &[PlanRef]) -> Self {
        let mut entry = Entry {
            name: name.to_string(),
            ..Entry::default()
        };
        let mut index: HashMap<Node, usize> = HashMap::new();
        for p in plans {
            let root = entry.intern(p, &mut index);
            entry.roots.push(root);
        }
        entry
    }

    fn intern(&mut self, p: &PlanRef, index: &mut HashMap<Node, usize>) -> usize {
        let node = match p.kind() {
            PlanKind::Scan { table, op } => Node::Scan(table.index(), op.0),
            PlanKind::Join { outer, inner, op } => {
                let o = self.intern(outer, index);
                let i = self.intern(inner, index);
                Node::Join(o, i, op.0)
            }
        };
        *index.entry(node).or_insert_with(|| {
            self.nodes.push(node);
            self.nodes.len() - 1
        })
    }

    /// An entry for `plans` of `query`, stamped with the fingerprint of the
    /// catalog they were optimized over and the query's tables.
    pub fn for_query(name: &str, plans: &[PlanRef], catalog: &Catalog, query: TableSet) -> Self {
        let mut entry = Entry::from_plans(name, plans);
        entry
            .fields
            .insert("fingerprint".into(), fingerprint(catalog));
        entry.fields.insert("tables".into(), format_tables(query));
        entry
    }

    /// A metadata field, or an error naming the entry.
    pub fn field(&self, key: &str) -> Result<&str, String> {
        self.fields
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("reference {}: missing field {key}", self.name))
    }

    /// A metadata field parsed as a number.
    pub fn number<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.field(key)?
            .parse()
            .map_err(|_| format!("reference {}: bad value for {key}", self.name))
    }

    /// Rebuilds the reference plans on `model`, re-costing every node, and
    /// checks that each plan joins exactly `query`. Fails on table or
    /// operator ids the model does not offer.
    pub fn plans<M: CostModel + ?Sized>(
        &self,
        model: &M,
        query: TableSet,
    ) -> Result<Vec<PlanRef>, String> {
        let err = |msg: String| format!("reference {}: {msg}", self.name);
        let mut built: Vec<PlanRef> = Vec::with_capacity(self.nodes.len());
        for &node in &self.nodes {
            let plan = match node {
                Node::Scan(t, op) => {
                    if t >= model.num_tables() {
                        return Err(err(format!("table {t} out of range")));
                    }
                    let (table, op) = (TableId::new(t), ScanOpId(op));
                    if !model.scan_ops(table).contains(&op) {
                        return Err(err(format!("scan operator {op:?} not offered")));
                    }
                    Plan::scan(model, table, op)
                }
                Node::Join(o, i, op) => {
                    let (outer, inner) = match (built.get(o), built.get(i)) {
                        (Some(a), Some(b)) => (PlanRef::clone(a), PlanRef::clone(b)),
                        _ => return Err(err(format!("join of undefined nodes {o}, {i}"))),
                    };
                    if !outer.rel().is_disjoint(inner.rel()) {
                        return Err(err("join operands overlap".into()));
                    }
                    let mut ops = Vec::new();
                    model.join_ops(outer.view(), inner.view(), &mut ops);
                    let op = JoinOpId(op);
                    if !ops.contains(&op) {
                        return Err(err(format!("join operator {op:?} not offered")));
                    }
                    Plan::join(model, outer, inner, op)
                }
            };
            built.push(plan);
        }
        self.roots
            .iter()
            .map(|&r| {
                let p = built
                    .get(r)
                    .ok_or_else(|| err(format!("root {r} undefined")))?;
                p.validate(query).map_err(|e| err(e.to_string()))?;
                Ok(PlanRef::clone(p))
            })
            .collect()
    }

    /// The re-costed reference frontier: the cost-Pareto set of
    /// [`Entry::plans`].
    pub fn costs<M: CostModel + ?Sized>(
        &self,
        model: &M,
        query: TableSet,
    ) -> Result<Vec<CostVector>, String> {
        let costs: Vec<CostVector> = self
            .plans(model, query)?
            .iter()
            .map(|p| *p.cost())
            .collect();
        if costs.is_empty() {
            return Err(format!("reference {}: no plans", self.name));
        }
        Ok(pareto_filter(&costs))
    }
}

/// The entry named `name`, after checking that it was stored for this
/// catalog and query, so that a changed generator fails here instead of
/// silently shifting α.
pub fn find<'a>(
    entries: &'a [Entry],
    name: &str,
    catalog: &Catalog,
    query: TableSet,
) -> Result<&'a Entry, String> {
    let entry = entries
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("no stored reference for {name}"))?;
    let (stored, current) = (entry.field("fingerprint")?, fingerprint(catalog));
    if stored != current {
        return Err(format!(
            "reference {name}: catalog fingerprint {current} differs from the stored {stored}; \
             the workload generator changed, regenerate the references"
        ));
    }
    if parse_tables(entry.field("tables")?)? != query {
        return Err(format!("reference {name}: stored query tables differ"));
    }
    Ok(entry)
}

fn fingerprint(catalog: &Catalog) -> String {
    format!("{:016x}", catalog.fingerprint())
}

/// Renders entries in the stored format.
pub fn write(entries: &[Entry], header: &str) -> String {
    let mut out = String::new();
    for line in header.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for e in entries {
        out.push_str("entry ");
        out.push_str(&e.name);
        for (k, v) in &e.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for n in &e.nodes {
            match *n {
                Node::Scan(t, op) => out.push_str(&format!("s {t} {op}\n")),
                Node::Join(o, i, op) => out.push_str(&format!("j {o} {i} {op}\n")),
            }
        }
        let roots: Vec<String> = e.roots.iter().map(|r| r.to_string()).collect();
        out.push_str(&format!("r {}\nend\n", roots.join(" ")));
    }
    out
}

/// Parses the stored format.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    let mut current: Option<Entry> = None;
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_ascii_whitespace();
        let tag = words.next().unwrap_or_default();
        let nums = |words: std::str::SplitAsciiWhitespace<'_>| -> Result<Vec<usize>, String> {
            words
                .map(|w| w.parse().map_err(|_| err("bad number")))
                .collect()
        };
        match (tag, current.as_mut()) {
            ("entry", None) => {
                let name = words.next().ok_or_else(|| err("entry without a name"))?;
                let mut fields = BTreeMap::new();
                for kv in words {
                    let (k, v) = kv.split_once('=').ok_or_else(|| err("field without '='"))?;
                    fields.insert(k.to_string(), v.to_string());
                }
                current = Some(Entry {
                    name: name.to_string(),
                    fields,
                    ..Entry::default()
                });
            }
            ("s", Some(e)) => match nums(words)?[..] {
                [t, op] => e
                    .nodes
                    .push(Node::Scan(t, op_id(op).ok_or_else(|| err("bad op"))?)),
                _ => return Err(err("scan needs table and operator")),
            },
            ("j", Some(e)) => match nums(words)?[..] {
                [o, i, op] if o < e.nodes.len() && i < e.nodes.len() => {
                    e.nodes
                        .push(Node::Join(o, i, op_id(op).ok_or_else(|| err("bad op"))?));
                }
                _ => return Err(err("join needs two earlier nodes and an operator")),
            },
            ("r", Some(e)) => {
                let roots = nums(words)?;
                if roots.iter().any(|&r| r >= e.nodes.len()) {
                    return Err(err("root is not a node"));
                }
                e.roots = roots;
            }
            ("end", Some(_)) => entries.push(current.take().expect("entry is open")),
            _ => return Err(err(&format!("unexpected '{tag}'"))),
        }
    }
    if current.is_some() {
        return Err("last entry has no 'end'".into());
    }
    Ok(entries)
}

fn op_id(op: usize) -> Option<u16> {
    u16::try_from(op).ok()
}

/// Table set from a comma-separated list of table indices.
fn parse_tables(list: &str) -> Result<TableSet, String> {
    list.split(',')
        .map(|t| match t.parse::<usize>() {
            Ok(i) if i < 128 => Ok(TableId::new(i)),
            _ => Err(format!("bad table index '{t}'")),
        })
        .collect()
}

/// Comma-separated table indices of a table set.
fn format_tables(set: TableSet) -> String {
    let ids: Vec<String> = set.iter().map(|t| t.index().to_string()).collect();
    ids.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::optimizer::{drive, Budget, NullObserver, Optimizer};
    use moqo_core::rmq::{Rmq, RmqConfig};

    use crate::check::same_tree;

    #[test]
    fn round_trip_rebuilds_identical_plans() {
        let model = StubModel::line(7, 3, 9);
        let query = TableSet::prefix(7);
        let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(4));
        drive(&mut rmq, Budget::Iterations(40), &mut NullObserver);
        let plans = Optimizer::frontier(&rmq);
        let mut e = Entry::from_plans("q", &plans);
        e.fields.insert("target".into(), format!("{:?}", 1.25f64));
        let text = write(&[e.clone()], "header");
        let back = parse(&text).unwrap();
        assert_eq!(back, vec![e]);
        let rebuilt = back[0].plans(&model, query).unwrap();
        assert_eq!(rebuilt.len(), plans.len());
        assert!(rebuilt.iter().zip(&plans).all(|(a, b)| same_tree(a, b)));
        assert_eq!(back[0].number::<f64>("target").unwrap(), 1.25);
        assert!(back[0].field("missing").is_err());
    }

    #[test]
    fn malformed_input_is_refused() {
        assert!(parse("s 0 0\n").is_err(), "node outside an entry");
        assert!(parse("entry a\ns 0 0\n").is_err(), "missing end");
        assert!(
            parse("entry a\nj 0 1 0\nend\n").is_err(),
            "forward reference"
        );
        assert!(parse("entry a\ns 0 0\nr 3\nend\n").is_err(), "bad root");
        let model = StubModel::line(3, 2, 1);
        let far = parse("entry a\ns 9 0\nr 0\nend\n").unwrap();
        assert!(far[0].plans(&model, TableSet::prefix(3)).is_err());
        let wrong_query = parse("entry a\ns 0 0\nr 0\nend\n").unwrap();
        assert!(wrong_query[0].plans(&model, TableSet::prefix(2)).is_err());
    }

    #[test]
    fn find_checks_catalog_and_query() {
        use moqo_workload::WorkloadSpec;
        let (catalog, query) = WorkloadSpec::chain(5, 1).generate();
        let (other, _) = WorkloadSpec::chain(5, 2).generate();
        let entries = vec![Entry::for_query("q", &[], &catalog, query.tables())];
        assert!(find(&entries, "q", &catalog, query.tables()).is_ok());
        assert!(find(&entries, "missing", &catalog, query.tables()).is_err());
        assert!(find(&entries, "q", &other, query.tables()).is_err());
        assert!(find(&entries, "q", &catalog, TableSet::prefix(4)).is_err());
    }

    #[test]
    fn table_lists_round_trip() {
        let set = parse_tables("0,3,17").unwrap();
        assert_eq!(format_tables(set), "0,3,17");
        assert!(parse_tables("0,x").is_err());
        assert!(parse_tables("200").is_err());
    }
}
