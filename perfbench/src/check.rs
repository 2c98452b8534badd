//! Correctness checks on every frontier the benchmark receives.
//!
//! A frontier passes when it is non-empty, every plan joins exactly the
//! query's tables ([`Plan::validate`]), every plan's derived properties
//! recompute bit-for-bit when its tree is rebuilt through [`Plan::scan`] /
//! [`Plan::join`] on the model, and no member strictly dominates another
//! member with the same output format (the archive keeps one trade-off per
//! format, so cross-format dominance is allowed).

use std::collections::HashMap;

use moqo_core::model::{CostModel, PlanView};
use moqo_core::plan::{Plan, PlanKind, PlanRef};
use moqo_core::tables::TableSet;

/// Checks frontiers of one query, remembering verified subtrees so that a
/// plan seen in an earlier snapshot is not rebuilt again.
pub struct FrontierChecker {
    query: TableSet,
    /// Verified nodes by address; holding the `PlanRef` keeps the address
    /// from being reused by another node.
    verified: HashMap<usize, PlanRef>,
}

impl FrontierChecker {
    /// A checker for frontiers of `query`.
    pub fn new(query: TableSet) -> Self {
        FrontierChecker {
            query,
            verified: HashMap::new(),
        }
    }

    /// Checks one frontier against `model`.
    pub fn check<M: CostModel + ?Sized>(
        &mut self,
        plans: &[PlanRef],
        model: &M,
    ) -> Result<(), String> {
        if plans.is_empty() {
            return Err("empty frontier".into());
        }
        for p in plans {
            if self.verified.contains_key(&address(p)) {
                continue;
            }
            p.validate(self.query)
                .map_err(|e| format!("invalid plan for {}: {e}", self.query))?;
            self.rebuild(p, model)?;
        }
        dominance_violation(plans).map_or(Ok(()), Err)
    }

    /// Rebuilds `p` bottom-up on `model` and compares every node's
    /// properties bit-for-bit. Children verified earlier stand in for their
    /// rebuilt copies, which are identical by then.
    fn rebuild<M: CostModel + ?Sized>(&mut self, p: &PlanRef, model: &M) -> Result<(), String> {
        if self.verified.contains_key(&address(p)) {
            return Ok(());
        }
        let rebuilt = match p.kind() {
            PlanKind::Scan { table, op } => {
                if !model.scan_ops(*table).contains(op) {
                    return Err(format!("scan operator {op:?} not applicable to {table}"));
                }
                Plan::scan(model, *table, *op)
            }
            PlanKind::Join { outer, inner, op } => {
                self.rebuild(outer, model)?;
                self.rebuild(inner, model)?;
                let mut ops = Vec::new();
                model.join_ops(outer.view(), inner.view(), &mut ops);
                if !ops.contains(op) {
                    return Err(format!("join operator {op:?} not applicable"));
                }
                Plan::join(model, PlanRef::clone(outer), PlanRef::clone(inner), *op)
            }
        };
        if !same_bits(rebuilt.view(), p.view()) {
            return Err(format!(
                "plan cost does not recompute: stored {} rebuilt {}",
                p.cost(),
                rebuilt.cost()
            ));
        }
        self.verified.insert(address(p), PlanRef::clone(p));
        Ok(())
    }
}

fn address(p: &PlanRef) -> usize {
    PlanRef::as_ptr(p) as usize
}

/// Describes the first pair of same-format members where one strictly
/// dominates the other, if any.
pub fn dominance_violation(plans: &[PlanRef]) -> Option<String> {
    for (i, a) in plans.iter().enumerate() {
        for (j, b) in plans.iter().enumerate() {
            if i != j && a.format() == b.format() && a.cost().strictly_dominates(b.cost()) {
                return Some(format!(
                    "frontier member {i} {} dominates member {j} {}",
                    a.cost(),
                    b.cost()
                ));
            }
        }
    }
    None
}

/// Whether two plan views agree bit-for-bit.
fn same_bits(a: &PlanView, b: &PlanView) -> bool {
    let bits =
        |v: &PlanView| -> Vec<u64> { v.cost.as_slice().iter().map(|x| x.to_bits()).collect() };
    a.rel == b.rel
        && a.format == b.format
        && a.rows.to_bits() == b.rows.to_bits()
        && a.pages.to_bits() == b.pages.to_bits()
        && bits(a) == bits(b)
}

/// Whether two plan trees are identical: same shape, tables, operators and
/// bit-identical properties at every node.
pub fn same_tree(a: &PlanRef, b: &PlanRef) -> bool {
    if !same_bits(a.view(), b.view()) {
        return false;
    }
    match (a.kind(), b.kind()) {
        (PlanKind::Scan { table: ta, op: oa }, PlanKind::Scan { table: tb, op: ob }) => {
            ta == tb && oa == ob
        }
        (
            PlanKind::Join {
                outer: xa,
                inner: ya,
                op: oa,
            },
            PlanKind::Join {
                outer: xb,
                inner: yb,
                op: ob,
            },
        ) => oa == ob && same_tree(xa, xb) && same_tree(ya, yb),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::model::{PlanProps, ScanOpId};
    use moqo_core::optimizer::{drive, Budget, NullObserver, Optimizer};
    use moqo_core::rmq::{Rmq, RmqConfig};
    use moqo_core::tables::TableId;
    use moqo_core::CostVector;

    fn frontier(model: &StubModel, n: usize) -> Vec<PlanRef> {
        let mut rmq = Rmq::new(model, TableSet::prefix(n), RmqConfig::seeded(3));
        drive(&mut rmq, Budget::Iterations(30), &mut NullObserver);
        Optimizer::frontier(&rmq)
    }

    #[test]
    fn rmq_frontiers_pass() {
        let model = StubModel::line(6, 2, 42);
        let plans = frontier(&model, 6);
        let mut c = FrontierChecker::new(TableSet::prefix(6));
        c.check(&plans, &model).unwrap();
        // A second pass hits the memo and still passes.
        c.check(&plans, &model).unwrap();
        assert!(plans.iter().all(|p| same_tree(p, p)));
    }

    #[test]
    fn wrong_query_fails() {
        let model = StubModel::line(6, 2, 42);
        let plans = frontier(&model, 6);
        let mut c = FrontierChecker::new(TableSet::prefix(5));
        assert!(c.check(&plans, &model).is_err());
        assert!(FrontierChecker::new(TableSet::prefix(6))
            .check(&[], &model)
            .is_err());
    }

    #[test]
    fn tampered_cost_fails() {
        let model = StubModel::line(1, 2, 42);
        let t = TableId::new(0);
        let op: ScanOpId = model.scan_ops(t)[0];
        let good = model.scan_props(t, op);
        let bad = Plan::scan_from_props(
            t,
            op,
            PlanProps {
                cost: good.cost.scale(2.0),
                ..good
            },
        );
        let mut c = FrontierChecker::new(TableSet::prefix(1));
        assert!(c.check(&[bad], &model).is_err());
    }

    #[test]
    fn dominated_member_fails() {
        let model = StubModel::line(1, 2, 42);
        let t = TableId::new(0);
        let op = model.scan_ops(t)[0];
        let props = model.scan_props(t, op);
        let worse = Plan::scan_from_props(
            t,
            op,
            PlanProps {
                cost: CostVector::new(&[props.cost[0] * 2.0, props.cost[1] * 2.0]),
                ..props
            },
        );
        let best = Plan::scan(&model, t, op);
        assert!(dominance_violation(&[PlanRef::clone(&best)]).is_none());
        assert!(dominance_violation(&[best, worse]).is_some());
    }
}
