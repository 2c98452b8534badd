//! `query-large`: one client runs one large query at a time through `Rmq`
//! with a fixed iteration budget, on one thread.
//!
//! The pool is chain, cycle and star join graphs of 50 and 100 tables with
//! MinMax selectivities under the 3-metric resource model, each run with
//! two fixed RMQ seeds: twelve entries. A run executes whole rounds over
//! the pool, every round in the same order. Each entry's α trajectory is
//! therefore the same on every run, and only the time it takes varies.
//!
//! The workload does not depend on the benchmark seed. Drawing RMQ seeds
//! from it would make α useless as a signal, since α is heavy-tailed
//! across RMQ seeds. Shuffling the order from it changed the process's
//! peak resident set size by up to 16 % from seed to seed: the heap grows
//! in steps whose timing depends on which query follows which.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moqo_catalog::Catalog;
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_core::CostVector;
use moqo_cost::resource::ResourceCostModel;
use moqo_metrics::epsilon::epsilon_indicator;
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};

use crate::check::FrontierChecker;
use crate::layers::ReplicaSamples;
use crate::refs;
use crate::stats::RequestSamples;

/// Join-graph shapes of the pool.
pub const SHAPES: [GraphShape; 3] = [GraphShape::Chain, GraphShape::Cycle, GraphShape::Star];
/// Query sizes of the pool, in tables.
pub const SIZES: [usize; 2] = [50, 100];
/// Catalog generator seed shared by every pool query.
pub const CATALOG_SEED: u64 = 5;
/// RMQ seeds each pool query is run with.
pub const RMQ_SEEDS: [u64; 2] = [1, 2];
/// Iterations per query.
pub const BUDGET: u64 = 100;
/// Requested seconds per round of the pool; a run covers
/// `ceil(seconds / SECONDS_PER_ROUND)` whole rounds, so every run of a
/// given length holds the same queries.
pub const SECONDS_PER_ROUND: u64 = 4;

/// The stored reference frontiers.
pub const REFERENCES: &str = include_str!("../data/query_large.ref");

/// Name of a pool query.
pub fn query_name(shape: GraphShape, tables: usize) -> String {
    format!("{}-{tables}", shape.name().to_lowercase())
}

/// Generates a pool query's catalog and table set.
pub fn generate(shape: GraphShape, tables: usize) -> (Arc<Catalog>, TableSet) {
    let (catalog, query) = WorkloadSpec {
        tables,
        shape,
        selectivity: SelectivityMethod::MinMax,
        seed: CATALOG_SEED,
    }
    .generate();
    (catalog, query.tables())
}

/// One pool query, ready to run.
pub struct PoolQuery {
    /// Query name.
    pub name: String,
    /// The cost model over the query's catalog.
    pub model: ResourceCostModel,
    /// The query's tables.
    pub query: TableSet,
    /// Re-costed reference frontier.
    pub reference: Vec<CostVector>,
}

/// One pool entry: a query and a seed with its α target.
#[derive(Clone, Copy, Debug)]
pub struct PoolEntry {
    /// Index into the query list.
    pub query: usize,
    /// RMQ seed.
    pub seed: u64,
    /// α target for `tt_alpha_ms`.
    pub target: f64,
}

/// The generated queries and their entries.
pub struct Pool {
    /// Queries.
    pub queries: Vec<PoolQuery>,
    /// Entries, in a fixed order.
    pub entries: Vec<PoolEntry>,
}

/// Generates the pool, checks each catalog's fingerprint against the stored
/// one, and re-costs the references through the current model.
pub fn setup() -> Result<Pool, String> {
    let stored = refs::parse(REFERENCES)?;
    let mut queries = Vec::new();
    let mut entries = Vec::new();
    for shape in SHAPES {
        for tables in SIZES {
            let name = query_name(shape, tables);
            let (catalog, query) = generate(shape, tables);
            let entry = refs::find(&stored, &name, &catalog, query)?;
            let model = ResourceCostModel::full(catalog);
            let reference = entry.costs(&model, query)?;
            for seed in RMQ_SEEDS {
                entries.push(PoolEntry {
                    query: queries.len(),
                    seed,
                    target: entry.number(&format!("target_s{seed}"))?,
                });
            }
            queries.push(PoolQuery {
                name,
                model,
                query,
                reference,
            });
        }
    }
    Ok(Pool { queries, entries })
}

/// Rounds a run of `seconds` covers.
pub fn rounds_for(seconds: u64) -> u64 {
    seconds.div_ceil(SECONDS_PER_ROUND).max(1)
}

/// The entries of a run: `rounds` rounds over the pool, each in the
/// pool's order.
pub fn schedule(pool: &Pool, rounds: u64) -> Vec<PoolEntry> {
    (0..rounds)
        .flat_map(|_| pool.entries.iter().copied())
        .collect()
}

/// Samples of an untraced run.
#[derive(Debug, Default)]
pub struct RunSamples {
    /// Queries run.
    pub queries: u64,
    /// Iterations run.
    pub iterations: u64,
    /// Time spent in `Rmq::new` and `Rmq::iterate`.
    pub optimizer_time: Duration,
    /// Per query run: its entry's mean times over the run, and α, in
    /// optimizer time.
    pub requests: RequestSamples,
}

/// Runs `order` through `Rmq`, timing only the optimizer's own calls and
/// checking every frontier it produces.
///
/// Every run of an entry does the same work, so the samples hold, once
/// per run of an entry, that entry's times averaged over its runs.
/// Percentiles are then over the pool's queries, weighted by their runs,
/// and a rank that falls between two entries' runs does not pick out
/// whichever run the host slowed most.
pub fn run(pool: &Pool, order: &[PoolEntry]) -> Result<RunSamples, String> {
    let mut s = RunSamples::default();
    let mut per_entry: Vec<RequestSamples> = Vec::new();
    per_entry.resize_with(pool.entries.len(), RequestSamples::default);
    for e in order {
        let index = pool
            .entries
            .iter()
            .position(|p| p.query == e.query && p.seed == e.seed)
            .expect("scheduled entries come from the pool");
        let q = &pool.queries[e.query];
        let mut checker = FrontierChecker::new(q.query);
        let t = Instant::now();
        let mut rmq = Rmq::new(&q.model, q.query, RmqConfig::seeded(e.seed));
        let mut elapsed = t.elapsed();
        let mut ttff = 0.0;
        let mut alpha = f64::INFINITY;
        let mut tt_alpha = None;
        for i in 1..=BUDGET {
            let t = Instant::now();
            rmq.iterate();
            elapsed += t.elapsed();
            let ms = elapsed.as_secs_f64() * 1e3;
            if i == 1 {
                ttff = ms;
            }
            let frontier = rmq.frontier();
            checker
                .check(&frontier, &q.model)
                .map_err(|err| format!("{} seed {} iteration {i}: {err}", q.name, e.seed))?;
            let costs: Vec<CostVector> = frontier.iter().map(|p| *p.cost()).collect();
            alpha = epsilon_indicator(&q.reference, &costs);
            if tt_alpha.is_none() && alpha <= e.target {
                tt_alpha = Some(ms);
            }
        }
        s.queries += 1;
        s.iterations += BUDGET;
        s.optimizer_time += elapsed;
        per_entry[index].record(ttff, elapsed.as_secs_f64() * 1e3, tt_alpha, alpha);
    }
    for (e, runs) in pool.entries.iter().zip(per_entry) {
        let n = runs.latency_ms.len();
        let same_alpha = runs.alpha_final.windows(2).all(|w| w[0] == w[1]);
        if !same_alpha || (runs.reached != 0 && runs.reached as usize != n) {
            let name = &pool.queries[e.query].name;
            return Err(format!(
                "{name} seed {}: runs on the same seed differ",
                e.seed
            ));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / n as f64;
        let (ttff, latency) = (mean(&runs.ttff_ms), mean(&runs.latency_ms));
        let tt_alpha = (runs.reached > 0).then(|| mean(&runs.tt_alpha_ms));
        for &alpha in &runs.alpha_final {
            s.requests.record(ttff, latency, tt_alpha, alpha);
        }
    }
    Ok(s)
}

/// Runs every entry of `order` through `Rmq` and through the timed replica
/// of `Rmq::iterate` (see [`ReplicaSamples::run`]).
pub fn run_traced(pool: &Pool, order: &[PoolEntry]) -> Result<ReplicaSamples, String> {
    let mut s = ReplicaSamples::default();
    for e in order {
        let q = &pool.queries[e.query];
        s.run(&q.model, q.query, e.seed, BUDGET)
            .map_err(|err| format!("replica on {} seed {}: {err}", q.name, e.seed))?;
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_of_an_entry_report_their_mean() {
        let pool = setup().expect("references match the generator");
        let (a, b) = (pool.entries[0], pool.entries[1]);
        let s = run(&pool, &[a, b, a]).expect("frontiers pass their checks");
        assert_eq!((s.queries, s.iterations), (3, 3 * BUDGET));
        let r = &s.requests;
        assert_eq!(r.latency_ms.len(), 3);
        // Entry `a` ran twice: both runs report the same mean.
        assert_eq!(r.latency_ms[0], r.latency_ms[1]);
        assert_eq!(r.ttff_ms[0], r.ttff_ms[1]);
        assert_eq!(r.alpha_final[0], r.alpha_final[1]);
        // Means preserve the total optimizer time.
        let total: f64 = r.latency_ms.iter().sum();
        let optimizer_ms = s.optimizer_time.as_secs_f64() * 1e3;
        assert!((total - optimizer_ms).abs() < 1e-6 * optimizer_ms);
        assert!(r.ttff_ms.iter().zip(&r.latency_ms).all(|(f, l)| f < l));
    }
}
