//! `serve-mixed`: sixteen logical clients in a closed loop through one
//! `FrontDoor` (one shard, two workers), all driven from the calling
//! thread. Tenants and templates are Zipf-skewed, and every eighth request
//! is a two-wide `ParRmq` session.
//!
//! Each client sends its next request only after its previous one is done.
//! An observer thread sweeps every in-flight handle without blocking and
//! sleeps briefly when a sweep finds nothing new, so each request's first
//! frontier and completion are observed within one sweep of happening,
//! whatever position its handle has in the sweep. It sends no load.

use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moqo_core::archive::ArchiveConfig;
use moqo_core::model::CostModel;
use moqo_core::optimizer::{Budget, PlanExchange};
use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_core::tables::TableSet;
use moqo_core::{CostVector, EpsFactors};
use moqo_cost::resource::ResourceCostModel;
use moqo_frontdoor::{FrontDoor, FrontDoorConfig, FrontRequest};
use moqo_metrics::epsilon::epsilon_indicator;
use moqo_parallel::{ParRmq, ParRmqConfig};
use moqo_service::{AdmissionConfig, DoneReason, ServiceConfig, SessionHandle, SessionStatus};
use moqo_workload::{GraphShape, SelectivityMethod, TrafficSpec, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::check::FrontierChecker;
use crate::refs;
use crate::stats::{Accounting, Failure, RequestSamples};

/// Tables in the shared catalog.
pub const CATALOG_TABLES: usize = 16;
/// Query templates in the pool.
pub const TEMPLATES: usize = 16;
/// Seed of the catalog and template pool (fixed: references are stored
/// per template).
pub const POOL_SEED: u64 = 11;
/// Iterations per session.
pub const BUDGET: u64 = 40;
/// Logical clients of the closed loop.
pub const CLIENTS: usize = 16;
/// Tenants traffic is spread over.
pub const TENANTS: usize = 8;
/// Zipf exponent of tenant and template choice.
pub const SKEW: f64 = 1.2;
/// Every this-many-th request is a wide `ParRmq` session.
pub const FANOUT_EVERY: u64 = 8;
/// Worker width of a wide session.
pub const FANOUT_WIDTH: usize = 2;
/// Worker threads of the front door's single shard.
pub const WORKERS: usize = 2;
/// Cost-model discriminator of the cache context.
pub const MODEL_TAG: &str = "resource-full";
/// A request not done after this long counts as timed out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);
/// Pause after a sweep that observed nothing new.
const POLL: Duration = Duration::from_micros(50);

/// The stored reference frontiers of the templates.
pub const REFERENCES: &str = include_str!("../data/serve.ref");

/// The traffic specification whose first [`TEMPLATES`] queries form the
/// template pool — the pool `TrafficSpec::generate_skewed` draws from.
pub fn traffic_spec() -> TrafficSpec {
    TrafficSpec {
        catalog_tables: CATALOG_TABLES,
        shape: GraphShape::Chain,
        selectivity: SelectivityMethod::Steinbrunn,
        queries: TEMPLATES,
        min_query_tables: 4,
        max_query_tables: 10,
        seed: POOL_SEED,
    }
}

/// Name of template `i`.
pub fn template_name(i: usize) -> String {
    format!("t{i:02}")
}

/// One query template with its reference.
pub struct Template {
    /// Tables joined.
    pub query: TableSet,
    /// Re-costed reference frontier.
    pub reference: Vec<CostVector>,
    /// α target for `tt_alpha_ms`.
    pub target: f64,
}

/// Catalog, model and templates of the serve workloads.
pub struct Pool {
    /// The cost model.
    pub model: Arc<ResourceCostModel>,
    /// Templates.
    pub templates: Vec<Template>,
    /// Cache context of every request.
    pub context: u64,
}

/// Generates the catalog and templates, checks the catalog fingerprint
/// against the stored one, and re-costs the references.
pub fn setup() -> Result<Pool, String> {
    let stored = refs::parse(REFERENCES)?;
    let (catalog, queries) = traffic_spec().generate();
    let model = Arc::new(ResourceCostModel::full(Arc::clone(&catalog)));
    let mut templates = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let entry = refs::find(&stored, &template_name(i), &catalog, q.tables())?;
        templates.push(Template {
            query: q.tables(),
            reference: entry.costs(&*model, q.tables())?,
            target: entry.number("target")?,
        });
    }
    let context = moqo_service::context_fingerprint(catalog.fingerprint(), MODEL_TAG);
    Ok(Pool {
        model,
        templates,
        context,
    })
}

/// One request of the stream.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Tenant.
    pub tenant: u64,
    /// Template index.
    pub template: usize,
    /// Intra-query width (1 = sequential `Rmq`).
    pub fan_out: usize,
    /// Optimizer seed.
    pub seed: u64,
}

/// Requests drawn in blocks: each block holds every rank exactly as often
/// as its share of the block, in an order shuffled from the benchmark seed.
/// Every run therefore sends the same mix and only the order differs,
/// which keeps run-to-run spread down without changing the distribution.
struct Stratified {
    block: Vec<usize>,
    queue: Vec<usize>,
}

impl Stratified {
    /// Ranks `0..shares.len()` with counts proportional to `shares` over a
    /// block of `size`, rounded by largest remainder.
    fn new(shares: &[f64], size: usize) -> Self {
        let total: f64 = shares.iter().sum();
        let exact: Vec<f64> = shares.iter().map(|s| s / total * size as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
            rb.partial_cmp(&ra)
                .expect("shares are finite")
                .then(a.cmp(&b))
        });
        let missing = size - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(missing) {
            counts[i] += 1;
        }
        let block = counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
            .collect();
        Stratified {
            block,
            queue: Vec::new(),
        }
    }

    fn zipf(n: usize, exponent: f64, size: usize) -> Self {
        let zipf = Zipf::new(n, exponent);
        let shares: Vec<f64> = (0..n).map(|i| zipf.probability(i)).collect();
        Stratified::new(&shares, size)
    }

    fn next(&mut self, rng: &mut StdRng) -> usize {
        if self.queue.is_empty() {
            self.queue = self.block.clone();
            self.queue.shuffle(rng);
        }
        self.queue.pop().expect("blocks are never empty")
    }
}

/// Requests per stratified block.
const BLOCK: usize = 128;
/// Wide sessions per block: one per template.
const WIDE_PER_BLOCK: usize = BLOCK / FANOUT_EVERY as usize;

/// The endless request stream of a workload, drawn from the benchmark
/// seed.
pub struct Requests {
    rng: StdRng,
    tenants: Stratified,
    templates: Stratified,
    /// Templates of wide sessions, stratified on their own so that every
    /// run spreads its wide sessions over the same templates.
    wide_templates: Stratified,
    sent: u64,
}

impl Requests {
    /// The stream for benchmark seed `seed`. Every block of `BLOCK`
    /// requests holds each tenant, each template of a sequential session
    /// and each template of a wide session equally often.
    pub fn new(seed: u64) -> Self {
        Requests {
            rng: StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e),
            tenants: Stratified::zipf(TENANTS, SKEW, BLOCK),
            templates: Stratified::zipf(TEMPLATES, SKEW, BLOCK - WIDE_PER_BLOCK),
            wide_templates: Stratified::zipf(TEMPLATES, 0.0, WIDE_PER_BLOCK),
            sent: 0,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        self.sent += 1;
        let wide = self.sent.is_multiple_of(FANOUT_EVERY);
        let templates = if wide {
            &mut self.wide_templates
        } else {
            &mut self.templates
        };
        Request {
            tenant: self.tenants.next(&mut self.rng) as u64,
            template: templates.next(&mut self.rng),
            fan_out: if wide { FANOUT_WIDTH } else { 1 },
            seed: self.rng.random(),
        }
    }
}

/// A front door of one shard with [`WORKERS`] workers. The live-session
/// cap is raised well above the client count so that a closed loop, which
/// never overloads the door, cannot trip the degradation ladder through
/// momentary accounting overlap; a degraded grant would change the α a
/// request reaches.
pub fn door() -> FrontDoor {
    FrontDoor::new(FrontDoorConfig {
        shards: 1,
        shard: ServiceConfig {
            workers: WORKERS,
            admission: AdmissionConfig {
                max_live_sessions: 16 * CLIENTS,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
        ..FrontDoorConfig::default()
    })
}

fn optimizer<M>(
    model: &Arc<M>,
    query: TableSet,
    req: &Request,
    eps: Option<f64>,
) -> Box<dyn PlanExchange>
where
    M: CostModel + Send + Sync + 'static,
{
    let mut cfg = RmqConfig::seeded(req.seed);
    if let Some(eps) = eps {
        cfg.archive = ArchiveConfig::eps_box(EpsFactors::uniform(eps));
    }
    if req.fan_out > 1 {
        Box::new(ParRmq::new(
            Arc::clone(model),
            query,
            ParRmqConfig {
                workers: req.fan_out,
                base: cfg,
                ..ParRmqConfig::default()
            },
        ))
    } else {
        Box::new(Rmq::new(Arc::clone(model), query, cfg))
    }
}

struct InFlight {
    handle: SessionHandle,
    sent: Instant,
    template: usize,
    seen_epoch: u64,
    ttff_ms: Option<f64>,
    tt_alpha_ms: Option<f64>,
    checker: FrontierChecker,
    error: Option<String>,
}

/// Samples of one closed-loop run.
#[derive(Debug, Default)]
pub struct LoopSamples {
    /// Request accounting.
    pub acct: Accounting,
    /// From the first send to the last completion.
    pub wall: Duration,
    /// Per completed request: times and α.
    pub requests: RequestSamples,
    /// Per request: duration of the `FrontDoor::submit` call.
    pub submit_us: Vec<f64>,
    /// Per fresh (not coalesced) session: plans absorbed at warm start.
    pub warm_plans: Vec<f64>,
    /// First failures, for the report.
    pub errors: Vec<String>,
}

impl LoopSamples {
    fn absorb(&mut self, o: LoopSamples) {
        self.acct.absorb(&o.acct);
        self.requests.absorb(o.requests);
        self.submit_us.extend(o.submit_us);
        self.warm_plans.extend(o.warm_plans);
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Runs the closed loop on `door` for `duration`, then lets every
/// outstanding request finish. `model` is what sessions optimize against;
/// frontiers are checked against `pool.model`.
///
/// The calling thread sends every request. A second thread only watches
/// the in-flight handles and hands each finished client back, so a slow
/// `submit` call never delays observing another request's progress.
pub fn closed_loop<M>(
    door: &FrontDoor,
    pool: &Pool,
    model: &Arc<M>,
    requests: &mut Requests,
    duration: Duration,
) -> LoopSamples
where
    M: CostModel + Send + Sync + 'static,
{
    let (flights_tx, flights_rx) = mpsc::channel::<InFlight>();
    let (freed_tx, freed_rx) = mpsc::channel::<()>();
    let start = Instant::now();
    let stop_at = start + duration;
    std::thread::scope(|scope| {
        let observer = scope.spawn(|| observe(pool, flights_rx, freed_tx));
        let mut s = LoopSamples::default();
        let mut idle = CLIENTS;
        while Instant::now() < stop_at {
            while idle > 0 && Instant::now() < stop_at {
                if let Some(f) = send(door, pool, model, requests, &mut s) {
                    idle -= 1;
                    if flights_tx.send(f).is_err() {
                        break;
                    }
                }
            }
            match freed_rx.recv_timeout(stop_at.saturating_duration_since(Instant::now())) {
                Ok(()) => idle += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        drop(flights_tx);
        let (observed, last_done) = observer.join().expect("observer thread panicked");
        s.absorb(observed);
        s.wall = last_done.saturating_duration_since(start);
        s
    })
}

/// What one look at an in-flight request found.
enum Poll {
    Idle,
    Progress,
    Done,
}

/// Watches in-flight requests until the sender hangs up and none is left;
/// returns their samples and the time the last one finished.
fn observe(pool: &Pool, flights: Receiver<InFlight>, freed: Sender<()>) -> (LoopSamples, Instant) {
    let mut s = LoopSamples::default();
    let mut live: Vec<InFlight> = Vec::new();
    let mut open = true;
    let mut last_done = Instant::now();
    while open || !live.is_empty() {
        if live.is_empty() {
            match flights.recv() {
                Ok(f) => live.push(f),
                Err(_) => break,
            }
        }
        loop {
            match flights.try_recv() {
                Ok(f) => live.push(f),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let mut progressed = false;
        let mut i = 0;
        while i < live.len() {
            match poll(pool, &mut live[i], &mut s) {
                Poll::Idle => i += 1,
                Poll::Progress => {
                    progressed = true;
                    i += 1;
                }
                Poll::Done => {
                    live.swap_remove(i);
                    last_done = Instant::now();
                    progressed = true;
                    // The client may have stopped sending; then nobody
                    // needs the slot back.
                    let _ = freed.send(());
                }
            }
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
    (s, last_done)
}

/// Looks at one in-flight request once, without blocking: records its
/// first frontier, checks every new frontier, and records the outcome when
/// it is done.
fn poll(pool: &Pool, f: &mut InFlight, s: &mut LoopSamples) -> Poll {
    let Some(snap) = f.handle.wait_improvement(f.seen_epoch, Duration::ZERO) else {
        if f.sent.elapsed() > REQUEST_TIMEOUT {
            f.handle.cancel();
            fail(s, Failure::TimedOut, "request timed out".into());
            return Poll::Done;
        }
        return Poll::Idle;
    };
    let ms = f.sent.elapsed().as_secs_f64() * 1e3;
    let template = &pool.templates[f.template];
    if snap.epoch > f.seen_epoch {
        f.seen_epoch = snap.epoch;
        f.ttff_ms.get_or_insert(ms);
        if let Err(e) = f.checker.check(&snap.plans, &*pool.model) {
            f.error.get_or_insert(e);
        }
        if f.tt_alpha_ms.is_none() && alpha(template, &snap.plans) <= template.target {
            f.tt_alpha_ms = Some(ms);
        }
    }
    if !snap.status.is_done() {
        return Poll::Progress;
    }
    if snap.status != SessionStatus::Done(DoneReason::BudgetExhausted) {
        fail(s, Failure::NotCompleted, format!("ended {:?}", snap.status));
    } else if let Some(e) = f.error.take() {
        fail(s, Failure::Incorrect, e);
    } else if snap.plans.is_empty() || f.seen_epoch == 0 {
        fail(s, Failure::Incorrect, "done without a frontier".into());
    } else {
        s.acct.complete();
        let ttff = f.ttff_ms.unwrap_or(ms);
        s.requests
            .record(ttff, ms, f.tt_alpha_ms, alpha(template, &snap.plans));
    }
    Poll::Done
}

fn alpha(template: &Template, plans: &[moqo_core::PlanRef]) -> f64 {
    let costs: Vec<CostVector> = plans.iter().map(|p| *p.cost()).collect();
    epsilon_indicator(&template.reference, &costs)
}

fn fail(s: &mut LoopSamples, why: Failure, detail: String) {
    s.acct.fail(why);
    if s.errors.len() < 5 {
        s.errors.push(detail);
    }
}

fn send<M>(
    door: &FrontDoor,
    pool: &Pool,
    model: &Arc<M>,
    requests: &mut Requests,
    s: &mut LoopSamples,
) -> Option<InFlight>
where
    M: CostModel + Send + Sync + 'static,
{
    let req = requests.next_request();
    let query = pool.templates[req.template].query;
    s.acct.attempt();
    let sent = Instant::now();
    let admitted = door.submit(
        FrontRequest {
            tenant: req.tenant,
            query,
            context: pool.context,
            budget: Budget::Iterations(BUDGET),
        },
        |grant| optimizer(model, query, &req, grant.eps),
    );
    s.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
    match admitted {
        Ok(a) => {
            if !a.coalesced {
                s.warm_plans.push(a.handle.absorbed_plans() as f64);
            }
            Some(InFlight {
                handle: a.handle,
                sent,
                template: req.template,
                seen_epoch: 0,
                ttff_ms: None,
                tt_alpha_ms: None,
                checker: FrontierChecker::new(query),
                error: None,
            })
        }
        Err(e) => {
            fail(s, Failure::Shed, e.to_string());
            None
        }
    }
}

/// Sends one request per template, all at once, and waits for them, so
/// that threads are running and the cross-query cache is filled before
/// timing.
pub fn warm_up<M>(door: &FrontDoor, pool: &Pool, model: &Arc<M>) -> Result<(), String>
where
    M: CostModel + Send + Sync + 'static,
{
    let mut handles = Vec::new();
    for (i, t) in pool.templates.iter().enumerate() {
        let req = Request {
            tenant: 0,
            template: i,
            fan_out: 1,
            seed: i as u64,
        };
        let admitted = door
            .submit(
                FrontRequest {
                    tenant: req.tenant,
                    query: t.query,
                    context: pool.context,
                    budget: Budget::Iterations(BUDGET),
                },
                |grant| optimizer(model, t.query, &req, grant.eps),
            )
            .map_err(|e| format!("warm-up request shed: {e}"))?;
        handles.push((t.query, admitted.handle));
    }
    for (query, handle) in handles {
        let done = handle
            .wait_done(REQUEST_TIMEOUT)
            .ok_or("warm-up request timed out")?;
        FrontierChecker::new(query).check(&done.plans, &*pool.model)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_blocks_hold_exact_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Stratified::zipf(TEMPLATES, SKEW, BLOCK);
        let mut counts = vec![0usize; TEMPLATES];
        for _ in 0..2 * BLOCK {
            counts[s.next(&mut rng)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 2 * BLOCK);
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "zipf counts fall: {counts:?}"
        );
        assert!(counts[TEMPLATES - 1] > 0, "every template appears");
        let uniform = Stratified::new(&[1.0; 4], 10);
        let mut c = [0usize; 4];
        for &r in &uniform.block {
            c[r] += 1;
        }
        assert_eq!(c, [3, 3, 2, 2]);
    }

    #[test]
    fn every_block_sends_the_same_mix() {
        assert_eq!(WIDE_PER_BLOCK, TEMPLATES);
        let mut r = Requests::new(7);
        let mut mixes = Vec::new();
        for _ in 0..3 {
            let block: Vec<Request> = (0..BLOCK).map(|_| r.next_request()).collect();
            let mut wide: Vec<usize> = block
                .iter()
                .filter(|q| q.fan_out == FANOUT_WIDTH)
                .map(|q| q.template)
                .collect();
            wide.sort_unstable();
            assert_eq!(wide, (0..TEMPLATES).collect::<Vec<_>>());
            let (mut tenants, mut templates) = (vec![0; TENANTS], vec![0; TEMPLATES]);
            for q in &block {
                tenants[q.tenant as usize] += 1;
                if q.fan_out == 1 {
                    templates[q.template] += 1;
                }
            }
            mixes.push((tenants, templates));
        }
        assert!(mixes.windows(2).all(|w| w[0] == w[1]), "{mixes:?}");
        let templates = &mixes[0].1;
        assert!(templates[0] > templates[TEMPLATES - 1], "{templates:?}");
    }
}
