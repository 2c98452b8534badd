//! Regenerates the stored reference frontiers and α targets in
//! `perfbench/data/`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin gen_refs -- [--out DIR]
//! ```
//!
//! For every query-large query and every serve template, the reference is
//! the exact cost-Pareto set of the union of
//!
//! * long `Rmq` runs (seeds 1000.., [`LONG_SEEDS`] runs),
//! * `Nsga2` runs from `moqo-baselines` (seeds 2000.., [`NSGA_SEEDS`] runs),
//! * and, for query-large, the benchmark's own runs of that query.
//!
//! Targets: a query-large entry's target is the α its own run (fixed seed,
//! the workload's budget) reaches at half the budget. A serve template's
//! target is the largest final α of [`TARGET_SEEDS`] cold `Rmq` runs at the
//! serve budget (seeds 3000..), so most requests reach it.

use std::path::PathBuf;

use moqo_baselines::nsga2::Nsga2;
use moqo_catalog::Catalog;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{drive, Budget, NullObserver, Optimizer};
use moqo_core::plan::PlanRef;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_core::CostVector;
use moqo_cost::resource::ResourceCostModel;
use moqo_metrics::epsilon::epsilon_indicator;
use moqo_perfbench::refs::{self, Entry};
use moqo_perfbench::{query_large, serve};

/// Long `Rmq` runs per reference.
const LONG_SEEDS: u64 = 4;
/// `Nsga2` runs per reference.
const NSGA_SEEDS: u64 = 2;
/// Cold runs a serve target is the worst of.
const TARGET_SEEDS: u64 = 8;

fn rmq_run<M: CostModel>(model: &M, query: TableSet, seed: u64, iters: u64) -> Rmq<&M> {
    let mut rmq = Rmq::new(model, query, RmqConfig::seeded(seed));
    for _ in 0..iters {
        rmq.iterate();
    }
    rmq
}

fn costs(plans: &[PlanRef]) -> Vec<CostVector> {
    plans.iter().map(|p| *p.cost()).collect()
}

/// Candidates from long RMQ and NSGA-II runs.
fn candidates<M: CostModel>(
    model: &M,
    query: TableSet,
    long_iters: u64,
    generations: u64,
) -> Vec<PlanRef> {
    let mut plans = Vec::new();
    for s in 0..LONG_SEEDS {
        plans.extend(rmq_run(model, query, 1000 + s, long_iters).frontier());
    }
    for s in 0..NSGA_SEEDS {
        let mut nsga = Nsga2::new(model, query, 2000 + s);
        drive(
            &mut nsga,
            Budget::Iterations(generations),
            &mut NullObserver,
        );
        plans.extend(nsga.frontier());
    }
    plans
}

/// The exact cost-Pareto subset of `plans`, one plan per distinct cost.
fn pareto(plans: Vec<PlanRef>) -> Vec<PlanRef> {
    let mut kept: Vec<PlanRef> = Vec::new();
    for p in plans {
        if kept
            .iter()
            .any(|k| k.cost().strictly_dominates(p.cost()) || k.cost() == p.cost())
        {
            continue;
        }
        kept.retain(|k| !p.cost().strictly_dominates(k.cost()));
        kept.push(p);
    }
    kept
}

/// A reference entry stamped for `query` over `catalog`, with the budget
/// its targets refer to.
fn entry(name: &str, plans: &[PlanRef], catalog: &Catalog, query: TableSet, budget: u64) -> Entry {
    let mut entry = Entry::for_query(name, plans, catalog, query);
    entry.fields.insert("budget".into(), budget.to_string());
    entry
}

fn query_large_entries() -> Vec<Entry> {
    let mut out = Vec::new();
    for shape in query_large::SHAPES {
        for tables in query_large::SIZES {
            let name = query_large::query_name(shape, tables);
            let (catalog, query) = query_large::generate(shape, tables);
            let model = ResourceCostModel::full(catalog.clone());
            let mut plans = candidates(&model, query, 1500, 300);
            for seed in query_large::RMQ_SEEDS {
                plans.extend(rmq_run(&model, query, seed, query_large::BUDGET).frontier());
            }
            let reference = pareto(plans);
            let ref_costs = costs(&reference);
            let mut entry = entry(&name, &reference, &catalog, query, query_large::BUDGET);
            for seed in query_large::RMQ_SEEDS {
                let half = rmq_run(&model, query, seed, query_large::BUDGET / 2);
                let target = epsilon_indicator(&ref_costs, &costs(&half.frontier()));
                entry
                    .fields
                    .insert(format!("target_s{seed}"), format!("{target:?}"));
            }
            eprintln!("{name}: {} reference plans", reference.len());
            out.push(entry);
        }
    }
    out
}

fn serve_entries() -> Vec<Entry> {
    let (catalog, queries) = serve::traffic_spec().generate();
    let model = ResourceCostModel::full(catalog.clone());
    let mut out = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let query = q.tables();
        let reference = pareto(candidates(&model, query, 1000, 100));
        let ref_costs = costs(&reference);
        let target = (0..TARGET_SEEDS)
            .map(|s| {
                let run = rmq_run(&model, query, 3000 + s, serve::BUDGET);
                epsilon_indicator(&ref_costs, &costs(&run.frontier()))
            })
            .fold(1.0f64, f64::max);
        let name = serve::template_name(i);
        let mut entry = entry(&name, &reference, &catalog, query, serve::BUDGET);
        entry.fields.insert("target".into(), format!("{target:?}"));
        out.push(entry);
    }
    out
}

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [] => PathBuf::from("perfbench/data"),
        [flag, dir] if flag == "--out" => PathBuf::from(dir),
        _ => return Err("usage: gen_refs [--out DIR]".into()),
    };
    let header = "Reference frontiers generated by `gen_refs` (see src/bin/gen_refs.rs).\n\
                  Plans are trees of table and operator ids, re-costed at load time.";
    let write = |file: &str, entries: &[Entry]| -> Result<(), String> {
        let path = out.join(file);
        std::fs::write(&path, refs::write(entries, header))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("serve.ref", &serve_entries())?;
    write("query_large.ref", &query_large_entries())?;
    Ok(())
}
