//! Per-layer instruments that sit outside the program: a replica of
//! `Rmq::iterate` assembled from the core crate's public functions and
//! timed step by step, and a [`CostModel`] wrapper that counts and samples
//! the time of calls into the real model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::cache::PlanCache;
use moqo_core::climb::{pareto_climb_in, StepScratch};
use moqo_core::frontier::{approximate_frontiers_in, FrontierScratch};
use moqo_core::fxhash::FxHashMap;
use moqo_core::model::{CostModel, JoinOpId, OutputFormat, PlanProps, PlanView, ScanOpId};
use moqo_core::plan::PlanRef;
use moqo_core::random_plan::random_plan_in;
use moqo_core::rmq::{PlanSpace, Rmq, RmqConfig};
use moqo_core::tables::{TableId, TableSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{same_tree, FrontierChecker};

/// Nanoseconds since `t`.
fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Step times and counts accumulated over replica iterations.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterSplit {
    /// Completed iterations.
    pub iterations: u64,
    /// Whole-iteration wall time.
    pub iter_ns: u64,
    /// `random_plan_in`.
    pub random_ns: u64,
    /// `pareto_climb_in`.
    pub climb_ns: u64,
    /// `PlanArena::adopt` plus clearing the climb arena.
    pub adopt_ns: u64,
    /// `approximate_frontiers_in`.
    pub frontier_ns: u64,
    /// Improving climb moves.
    pub climb_steps: u64,
    /// Climb admission probes.
    pub probes: u64,
    /// Climb dominance tests.
    pub dominance_tests: u64,
    /// Climb candidates admitted.
    pub admitted: u64,
}

impl IterSplit {
    fn share(&self, ns: u64) -> f64 {
        ns as f64 / self.iter_ns.max(1) as f64
    }

    /// Shares of iteration time: random plan, climb, adopt, frontier.
    pub fn shares(&self) -> [f64; 4] {
        [
            self.share(self.random_ns),
            self.share(self.climb_ns),
            self.share(self.adopt_ns),
            self.share(self.frontier_ns),
        ]
    }

    /// Per-iteration mean of a count.
    pub fn per_iter(&self, count: u64) -> f64 {
        count as f64 / self.iterations.max(1) as f64
    }
}

/// A replica of `Rmq::iterate` for the paper configuration (bushy plans,
/// shared plan cache), built from the same public functions in the same
/// order with the same RNG stream, so its frontier must equal `Rmq`'s on
/// the same seed bit for bit.
pub struct Replica<M: CostModel> {
    model: M,
    query: TableSet,
    cfg: RmqConfig,
    arena: PlanArena,
    climb_arena: PlanArena,
    adopt_memo: FxHashMap<PlanId, PlanId>,
    cache: PlanCache<PlanId>,
    iteration: u64,
    rng: StdRng,
    climb_scratch: StepScratch,
    frontier_scratch: FrontierScratch<PlanId>,
}

impl<M: CostModel> Replica<M> {
    /// A replica for `query` over `model`.
    ///
    /// # Panics
    /// Panics on a configuration other than the paper's plan space with a
    /// shared cache, which is all the replica reproduces.
    pub fn new(model: M, query: TableSet, cfg: RmqConfig) -> Self {
        assert!(
            cfg.share_cache && cfg.space == PlanSpace::Bushy,
            "the replica reproduces the bushy, shared-cache configuration only"
        );
        Replica {
            model,
            query,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            arena: PlanArena::new(),
            climb_arena: PlanArena::new(),
            adopt_memo: FxHashMap::default(),
            cache: PlanCache::new(),
            iteration: 0,
            climb_scratch: StepScratch::default(),
            frontier_scratch: FrontierScratch::default(),
        }
    }

    /// Runs one iteration, adding its step times and counts to `split`.
    pub fn iterate(&mut self, split: &mut IterSplit) {
        let t0 = Instant::now();
        let plan = random_plan_in(
            &mut self.climb_arena,
            &self.model,
            self.query,
            &mut self.rng,
        );
        let t1 = Instant::now();
        let (opt, stats) = pareto_climb_in(
            &mut self.climb_arena,
            plan,
            &self.model,
            &self.cfg.climb,
            &mut self.climb_scratch,
        );
        let t2 = Instant::now();
        self.iteration += 1;
        let admission = self.cfg.archive.admission(self.iteration);
        self.adopt_memo.clear();
        let opt = self
            .arena
            .adopt(&self.climb_arena, opt, &mut self.adopt_memo);
        self.climb_arena.clear();
        let t3 = Instant::now();
        approximate_frontiers_in(
            &mut self.arena,
            opt,
            &self.model,
            &mut self.cache,
            &admission,
            &mut self.frontier_scratch,
        );
        let t4 = Instant::now();
        let screen = self.climb_scratch.take_screen();
        split.iterations += 1;
        split.random_ns += (t1 - t0).as_nanos() as u64;
        split.climb_ns += (t2 - t1).as_nanos() as u64;
        split.adopt_ns += (t3 - t2).as_nanos() as u64;
        split.frontier_ns += (t4 - t3).as_nanos() as u64;
        split.iter_ns += ns_since(t0);
        split.climb_steps += stats.steps as u64;
        split.probes += screen.probes;
        split.dominance_tests += screen.dominance_tests;
        split.admitted += screen.admitted;
    }

    /// The query frontier, exported as plan trees.
    pub fn frontier(&self) -> Vec<PlanRef> {
        self.cache
            .frontier(self.query)
            .iter()
            .map(|&id| self.arena.export(id))
            .collect()
    }

    /// The partial-plan cache.
    pub fn cache(&self) -> &PlanCache<PlanId> {
        &self.cache
    }

    /// The session arena.
    pub fn arena(&self) -> &PlanArena {
        &self.arena
    }
}

/// Layer measurements of replica runs.
#[derive(Debug, Default)]
pub struct ReplicaSamples {
    /// Step split over every replica iteration.
    pub split: IterSplit,
    /// Time of the same iterations in `Rmq::iterate`, untraced.
    pub plain_ns: u64,
    /// Cost-model calls during the replica iterations.
    pub calls: CostCalls,
    /// Per run at budget end: query frontier size.
    pub frontier_size: Vec<f64>,
    /// Per run at budget end: plans in the partial-plan cache.
    pub cache_plans: Vec<f64>,
    /// Per run at budget end: session arena nodes.
    pub arena_nodes: Vec<f64>,
    /// Per run at budget end: session arena dedup rate.
    pub dedup_frac: Vec<f64>,
}

impl ReplicaSamples {
    /// Runs `budget` iterations twice on the same seed: untraced through
    /// `Rmq`, and traced through the replica over a counting wrapper of
    /// `model`. Records the replica's split and end state and checks its
    /// frontier. Both frontiers must agree bit for bit; a mismatch is an
    /// error, so no split is reported for a replica that drifted from the
    /// optimizer. The two runs alternate which goes first, so that the
    /// overhead estimate pairs like with like.
    pub fn run<M: CostModel>(
        &mut self,
        model: &M,
        query: TableSet,
        seed: u64,
        budget: u64,
    ) -> Result<(), String> {
        let counted = CountingModel::new(model);
        let mut replica = Replica::new(&counted, query, RmqConfig::seeded(seed));
        let mut rmq = Rmq::new(model, query, RmqConfig::seeded(seed));
        let plain_first = self.frontier_size.len().is_multiple_of(2);
        if plain_first {
            self.plain_ns += time_rmq(&mut rmq, budget);
        }
        let before = CostCalls::now();
        for _ in 0..budget {
            replica.iterate(&mut self.split);
        }
        self.calls.absorb(&CostCalls::now().since(&before));
        if !plain_first {
            self.plain_ns += time_rmq(&mut rmq, budget);
        }
        let frontier = replica.frontier();
        FrontierChecker::new(query).check(&frontier, model)?;
        let expected = rmq.frontier();
        if expected.len() != frontier.len()
            || !expected.iter().zip(&frontier).all(|(a, b)| same_tree(a, b))
        {
            return Err(format!(
                "replica of Rmq::iterate diverged from Rmq on seed {seed}: \
                 {} vs {} frontier plans",
                frontier.len(),
                expected.len()
            ));
        }
        self.frontier_size.push(frontier.len() as f64);
        self.cache_plans.push(replica.cache().total_plans() as f64);
        let arena = replica.arena().stats();
        self.arena_nodes.push(arena.nodes as f64);
        self.dedup_frac.push(arena.dedup_rate());
        Ok(())
    }

    /// Replica iteration time over untraced `Rmq` iteration time, minus 1.
    pub fn overhead_frac(&self) -> f64 {
        self.split.iter_ns as f64 / self.plain_ns.max(1) as f64 - 1.0
    }
}

/// Runs `budget` iterations of `rmq` and returns their time.
fn time_rmq<M: CostModel>(rmq: &mut Rmq<M>, budget: u64) -> u64 {
    let t = Instant::now();
    for _ in 0..budget {
        rmq.iterate();
    }
    ns_since(t)
}

/// Calls into the cost model counted by one thread. Each thread writes only
/// its own tally, so plain load-and-store updates suffice; other threads
/// only read.
#[derive(Default)]
struct Tally {
    join_props: AtomicU64,
    join_props_timed: AtomicU64,
    join_props_ns: AtomicU64,
    join_ops: AtomicU64,
    join_ops_timed: AtomicU64,
    join_ops_ns: AtomicU64,
    scan_props: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let old = counter.load(Ordering::Relaxed);
    counter.store(old + by, Ordering::Relaxed);
    old
}

static TALLIES: Mutex<Vec<Arc<Tally>>> = Mutex::new(Vec::new());

thread_local! {
    static TALLY: Arc<Tally> = {
        let t = Arc::new(Tally::default());
        TALLIES.lock().expect("tally registry poisoned").push(Arc::clone(&t));
        t
    };
}

/// One call in this many is timed.
const SAMPLE_EVERY: u64 = 256;

/// Totals of cost-model calls over all threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostCalls {
    /// `join_props` calls.
    pub join_props: u64,
    /// Timed `join_props` calls.
    pub join_props_timed: u64,
    /// Time of the timed `join_props` calls.
    pub join_props_ns: u64,
    /// `join_ops` calls.
    pub join_ops: u64,
    /// Timed `join_ops` calls.
    pub join_ops_timed: u64,
    /// Time of the timed `join_ops` calls.
    pub join_ops_ns: u64,
    /// `scan_props` calls.
    pub scan_props: u64,
}

impl CostCalls {
    /// Current totals.
    pub fn now() -> Self {
        let tallies = TALLIES.lock().expect("tally registry poisoned");
        let mut c = CostCalls::default();
        for t in tallies.iter() {
            let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
            c.join_props += get(&t.join_props);
            c.join_props_timed += get(&t.join_props_timed);
            c.join_props_ns += get(&t.join_props_ns);
            c.join_ops += get(&t.join_ops);
            c.join_ops_timed += get(&t.join_ops_timed);
            c.join_ops_ns += get(&t.join_ops_ns);
            c.scan_props += get(&t.scan_props);
        }
        c
    }

    /// Adds another set of totals into this one.
    pub fn absorb(&mut self, o: &CostCalls) {
        self.join_props += o.join_props;
        self.join_props_timed += o.join_props_timed;
        self.join_props_ns += o.join_props_ns;
        self.join_ops += o.join_ops;
        self.join_ops_timed += o.join_ops_timed;
        self.join_ops_ns += o.join_ops_ns;
        self.scan_props += o.scan_props;
    }

    /// Calls made since `earlier`.
    pub fn since(&self, earlier: &CostCalls) -> CostCalls {
        CostCalls {
            join_props: self.join_props - earlier.join_props,
            join_props_timed: self.join_props_timed - earlier.join_props_timed,
            join_props_ns: self.join_props_ns - earlier.join_props_ns,
            join_ops: self.join_ops - earlier.join_ops,
            join_ops_timed: self.join_ops_timed - earlier.join_ops_timed,
            join_ops_ns: self.join_ops_ns - earlier.join_ops_ns,
            scan_props: self.scan_props - earlier.scan_props,
        }
    }

    /// Mean time of one `join_props` call, net of the timer's own cost.
    pub fn join_props_mean_ns(&self, timer_ns: f64) -> f64 {
        net_mean(self.join_props_ns, self.join_props_timed, timer_ns)
    }

    /// Estimated total time in `join_props` and `join_ops`.
    pub fn estimated_ns(&self, timer_ns: f64) -> f64 {
        self.join_props as f64 * self.join_props_mean_ns(timer_ns)
            + self.join_ops as f64 * net_mean(self.join_ops_ns, self.join_ops_timed, timer_ns)
    }
}

fn net_mean(ns: u64, timed: u64, timer_ns: f64) -> f64 {
    if timed == 0 {
        0.0
    } else {
        (ns as f64 / timed as f64 - timer_ns).max(0.0)
    }
}

/// Median cost of reading the clock twice, subtracted from sampled call
/// times.
pub fn timer_overhead_ns() -> f64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            ns_since(t)
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}

/// A cost model that counts calls into the wrapped model and times one
/// in [`SAMPLE_EVERY`] of the `join_props` and `join_ops` calls.
pub struct CountingModel<M> {
    inner: M,
}

impl<M> CountingModel<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        CountingModel { inner }
    }
}

impl<M: CostModel> CostModel for CountingModel<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn metric_name(&self, k: usize) -> &str {
        self.inner.metric_name(k)
    }
    fn num_tables(&self) -> usize {
        self.inner.num_tables()
    }
    fn scan_ops(&self, table: TableId) -> &[ScanOpId] {
        self.inner.scan_ops(table)
    }
    fn join_ops(&self, outer: &PlanView, inner: &PlanView, out: &mut Vec<JoinOpId>) {
        TALLY.with(|t| {
            if bump(&t.join_ops, 1).is_multiple_of(SAMPLE_EVERY) {
                let start = Instant::now();
                self.inner.join_ops(outer, inner, out);
                bump(&t.join_ops_ns, ns_since(start));
                bump(&t.join_ops_timed, 1);
            } else {
                self.inner.join_ops(outer, inner, out);
            }
        })
    }
    fn scan_props(&self, table: TableId, op: ScanOpId) -> PlanProps {
        TALLY.with(|t| bump(&t.scan_props, 1));
        self.inner.scan_props(table, op)
    }
    fn join_props(&self, outer: &PlanView, inner: &PlanView, op: JoinOpId) -> PlanProps {
        TALLY.with(|t| {
            if bump(&t.join_props, 1).is_multiple_of(SAMPLE_EVERY) {
                let start = Instant::now();
                let props = self.inner.join_props(outer, inner, op);
                bump(&t.join_props_ns, ns_since(start));
                bump(&t.join_props_timed, 1);
                props
            } else {
                self.inner.join_props(outer, inner, op)
            }
        })
    }
    fn scan_op_name(&self, op: ScanOpId) -> String {
        self.inner.scan_op_name(op)
    }
    fn join_op_name(&self, op: JoinOpId) -> String {
        self.inner.join_op_name(op)
    }
    fn format_name(&self, format: OutputFormat) -> String {
        self.inner.format_name(format)
    }
    fn num_formats(&self) -> usize {
        self.inner.num_formats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::model::testing::StubModel;
    use moqo_core::rmq::Rmq;

    use crate::check::same_tree;

    #[test]
    fn replica_matches_rmq_bit_for_bit() {
        let model = StubModel::line(9, 3, 5);
        let query = TableSet::prefix(9);
        let mut rmq = Rmq::new(&model, query, RmqConfig::seeded(11));
        let counted = CountingModel::new(&model);
        let mut replica = Replica::new(&counted, query, RmqConfig::seeded(11));
        let mut split = IterSplit::default();
        let before = CostCalls::now();
        for _ in 0..60 {
            rmq.iterate();
            replica.iterate(&mut split);
        }
        let (a, b) = (rmq.frontier(), replica.frontier());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| same_tree(x, y)));
        assert_eq!(split.iterations, 60);
        let covered: f64 = split.shares().iter().sum();
        assert!(covered > 0.5 && covered <= 1.0 + 1e-9, "{covered}");
        let calls = CostCalls::now().since(&before);
        assert!(calls.join_props > 0 && calls.join_ops > 0 && calls.scan_props > 0);
        assert!(calls.join_props_timed >= calls.join_props / SAMPLE_EVERY);
    }

    #[test]
    fn replica_samples_pair_with_rmq() {
        let model = StubModel::line(8, 3, 2);
        let mut s = ReplicaSamples::default();
        s.run(&model, TableSet::prefix(8), 4, 30).unwrap();
        s.run(&model, TableSet::prefix(8), 5, 30).unwrap();
        assert_eq!(s.split.iterations, 60);
        assert!(s.plain_ns > 0 && s.overhead_frac().is_finite());
        assert_eq!(s.frontier_size.len(), 2);
        assert!(s.calls.join_props > 0);
    }

    #[test]
    fn net_mean_subtracts_the_timer() {
        assert_eq!(net_mean(1000, 10, 30.0), 70.0);
        assert_eq!(net_mean(100, 10, 30.0), 0.0);
        assert_eq!(net_mean(0, 0, 30.0), 0.0);
    }
}
