//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! moqo-perfbench --workload <query-large|serve-mixed>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload traced and, for the same amount of work or time,
//! untraced, and prints the per-layer metrics. Human-readable lines come first; the last
//! line is one JSON object. The exit code is non-zero when any output
//! fails a correctness check or the replica of `Rmq::iterate` diverges.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moqo_core::rmq::{Rmq, RmqConfig};
use moqo_frontdoor::{FrontDoor, FrontDoorStats};
use moqo_obs::ObsSnapshot;
use moqo_perfbench::check::FrontierChecker;
use moqo_perfbench::layers::{timer_overhead_ns, CostCalls, CountingModel, ReplicaSamples};
use moqo_perfbench::query_large;
use moqo_perfbench::serve::{self, Requests};
use moqo_perfbench::stats::{self, Failure, Percentile, RequestSamples};
use moqo_service::ServiceStats;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    QueryLarge,
    ServeMixed,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "query-large" => Workload::QueryLarge,
                    "serve-mixed" => Workload::ServeMixed,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What one invocation reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn percentile(&mut self, name: &'static str, p: Option<Percentile>) {
        let Some(p) = p else {
            self.errors.push(format!("{name}: no samples"));
            return;
        };
        self.metric(name, p.value, "ms");
        self.notes.push(format!(
            "{name}: p{:.2} of {} samples, {} beyond",
            p.level, p.samples, p.beyond
        ));
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.failed == 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for error in &self.errors {
            println!("! {error}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median time.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&stats::sorted(times))
        .expect("setup ran")
        .value;
    Ok((last.expect("setup ran"), median))
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn delta(after: &ObsSnapshot, before: &ObsSnapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// Quality and latency metrics shared by every workload.
fn end_to_end(
    r: &mut Report,
    iterations: u64,
    sessions: u64,
    wall: Duration,
    requests: RequestSamples,
    setup_s: f64,
) {
    let secs = wall.as_secs_f64();
    r.metric("iters_per_s", iterations as f64 / secs, "1/s");
    let tt_alpha = stats::median(&stats::sorted(requests.tt_alpha_ms));
    r.notes.push(format!(
        "tt_alpha_ms: {} of {} requests reached their α target",
        requests.reached,
        tt_alpha.map_or(0, |p| p.samples)
    ));
    r.percentile("tt_alpha_ms", tt_alpha);
    match stats::geomean(&requests.alpha_final) {
        Some(g) => r.metric("alpha_final", g, "ratio"),
        None => r.errors.push("alpha_final: no finite α".into()),
    }
    r.metric("sessions_per_s", sessions as f64 / secs, "1/s");
    let ttff = stats::sorted(requests.ttff_ms);
    r.percentile("ttff_p50_ms", stats::median(&ttff));
    r.percentile("ttff_p99_ms", stats::tail(&ttff));
    let latency = stats::sorted(requests.latency_ms);
    r.percentile("latency_p50_ms", stats::median(&latency));
    r.percentile("latency_p99_ms", stats::tail(&latency));
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

fn query_large_setup() -> Result<query_large::Pool, String> {
    let pool = query_large::setup()?;
    // Warm-up: a few iterations of every query.
    for q in &pool.queries {
        let mut rmq = Rmq::new(&q.model, q.query, RmqConfig::seeded(0));
        for _ in 0..3 {
            rmq.iterate();
        }
        FrontierChecker::new(q.query).check(&rmq.frontier(), &q.model)?;
    }
    Ok(pool)
}

fn run_query_large(args: &Args, r: &mut Report) -> Result<(), String> {
    let (pool, setup_s) = timed_setup(query_large_setup)?;
    if !args.trace {
        let order = query_large::schedule(&pool, query_large::rounds_for(args.seconds));
        r.attempted = order.len() as u64;
        let s = query_large::run(&pool, &order)?;
        end_to_end(
            r,
            s.iterations,
            s.queries,
            s.optimizer_time,
            s.requests,
            setup_s,
        );
        return Ok(());
    }
    // Each entry runs twice, untraced and traced, so half the rounds fill
    // the time.
    let rounds = query_large::rounds_for(args.seconds.div_ceil(2));
    let order = query_large::schedule(&pool, rounds);
    r.attempted = order.len() as u64;
    let timer_ns = timer_overhead_ns();
    let obs_before = ObsSnapshot::capture();
    let t = query_large::run_traced(&pool, &order)?;
    let obs_after = ObsSnapshot::capture();
    core_layers(r, &t);
    cost_layers(
        r,
        &t.calls,
        t.split.iterations,
        t.split.iter_ns as f64,
        timer_ns,
    );
    frontdoor_layers(
        r,
        &[],
        &FrontDoorStats::default(),
        &FrontDoorStats::default(),
    );
    service_layers(r, None, &[], 0.0, 0.0);
    parallel_layers(r, &obs_before, &obs_after, 0);
    r.metric("obs.trace_overhead_frac", t.overhead_frac(), "fraction");
    Ok(())
}

fn core_layers(r: &mut Report, t: &ReplicaSamples) {
    let split = &t.split;
    let [random, climb, adopt, frontier] = split.shares();
    r.metric(
        "core.iter_us",
        split.iter_ns as f64 / 1e3 / split.iterations.max(1) as f64,
        "us",
    );
    r.metric("core.random_plan.share", random, "fraction");
    r.metric("core.climb.share", climb, "fraction");
    r.metric("core.arena.adopt.share", adopt, "fraction");
    r.metric("core.frontier.share", frontier, "fraction");
    r.metric(
        "core.shares_covered",
        random + climb + adopt + frontier,
        "fraction",
    );
    r.metric(
        "core.climb.steps_per_iter",
        split.per_iter(split.climb_steps),
        "count",
    );
    r.metric(
        "core.climb.probes_per_iter",
        split.per_iter(split.probes),
        "count",
    );
    r.metric(
        "core.climb.dominance_tests_per_iter",
        split.per_iter(split.dominance_tests),
        "count",
    );
    r.metric(
        "core.climb.admit_frac",
        ratio(split.admitted, split.probes),
        "fraction",
    );
    r.metric("core.frontier.size", mean(&t.frontier_size), "count");
    r.metric("core.cache.plans", mean(&t.cache_plans), "count");
    r.metric("core.arena.nodes", mean(&t.arena_nodes), "count");
    r.metric("core.arena.dedup_frac", mean(&t.dedup_frac), "fraction");
}

fn cost_layers(r: &mut Report, calls: &CostCalls, iterations: u64, busy_ns: f64, timer_ns: f64) {
    r.metric(
        "cost.join_props.calls_per_iter",
        ratio(calls.join_props, iterations),
        "count",
    );
    r.metric(
        "cost.join_props.ns",
        calls.join_props_mean_ns(timer_ns),
        "ns",
    );
    r.metric(
        "cost.join_ops.calls_per_iter",
        ratio(calls.join_ops, iterations),
        "count",
    );
    let share = if busy_ns > 0.0 {
        calls.estimated_ns(timer_ns) / busy_ns
    } else {
        0.0
    };
    r.metric("cost.share", share, "fraction");
}

fn frontdoor_layers(
    r: &mut Report,
    submit_us: &[f64],
    before: &FrontDoorStats,
    after: &FrontDoorStats,
) {
    let submit = stats::sorted(submit_us.to_vec());
    let (p50, tail) = (stats::median(&submit), stats::tail(&submit));
    if let Some(t) = tail {
        r.notes.push(format!(
            "frontdoor.submit_us_p99: p{:.2} of {} samples, {} beyond",
            t.level, t.samples, t.beyond
        ));
    }
    r.metric(
        "frontdoor.submit_us_p50",
        p50.map_or(0.0, |p| p.value),
        "us",
    );
    r.metric(
        "frontdoor.submit_us_p99",
        tail.map_or(0.0, |p| p.value),
        "us",
    );
    let offered = after.offered - before.offered;
    r.metric(
        "frontdoor.coalesced_frac",
        ratio(after.coalesced - before.coalesced, offered),
        "fraction",
    );
    r.metric(
        "frontdoor.degraded_frac",
        ratio(after.degraded - before.degraded, offered),
        "fraction",
    );
    r.metric(
        "frontdoor.shed_frac",
        ratio(after.shed - before.shed, offered),
        "fraction",
    );
}

fn service_layers(
    r: &mut Report,
    stats_after: Option<&ServiceStats>,
    warm_plans: &[f64],
    cache_hit_frac: f64,
    steps_per_session: f64,
) {
    let ms = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
    r.metric(
        "service.queue_delay_p50_ms",
        ms(stats_after.and_then(|s| s.queue_delay_p50)),
        "ms",
    );
    r.metric(
        "service.queue_delay_p99_ms",
        ms(stats_after.and_then(|s| s.queue_delay_p99)),
        "ms",
    );
    r.metric("service.cache_hit_frac", cache_hit_frac, "fraction");
    r.metric("service.warm_plans_mean", mean(warm_plans), "count");
    r.metric("service.steps_per_session", steps_per_session, "count");
}

fn parallel_layers(r: &mut Report, before: &ObsSnapshot, after: &ObsSnapshot, sessions: u64) {
    let per = |name: &str| ratio(delta(after, before, name), sessions);
    r.metric(
        "parallel.pool.batches",
        per("exec_pool.batches"),
        "count/session",
    );
    r.metric(
        "parallel.pool.steals",
        per("exec_pool.steals"),
        "count/session",
    );
    r.metric(
        "parallel.pool.donations",
        per("exec_pool.donations"),
        "count/session",
    );
    r.metric(
        "parallel.exchange.publishes",
        per("exchange.publishes"),
        "count/session",
    );
    r.metric(
        "parallel.exchange.merged_frac",
        ratio(
            delta(after, before, "exchange.merged"),
            delta(after, before, "exchange.offered"),
        ),
        "fraction",
    );
}

fn serve_setup<M>(
    model: impl Fn(&serve::Pool) -> Arc<M>,
) -> Result<(serve::Pool, Arc<M>, FrontDoor), String>
where
    M: moqo_core::model::CostModel + Send + Sync + 'static,
{
    let pool = serve::setup()?;
    let model = model(&pool);
    let door = serve::door();
    serve::warm_up(&door, &pool, &model)?;
    Ok((pool, model, door))
}

fn record_loop(r: &mut Report, s: &serve::LoopSamples) {
    r.attempted += s.acct.attempted();
    r.failed += s.acct.failed();
    if s.acct.failed() > 0 {
        let count = |kind| s.acct.failures().iter().filter(|&&f| f == kind).count();
        r.notes.push(format!(
            "failures: {} shed, {} timed out, {} not completed, {} incorrect",
            count(Failure::Shed),
            count(Failure::TimedOut),
            count(Failure::NotCompleted),
            count(Failure::Incorrect)
        ));
    }
    r.errors.extend(s.errors.iter().cloned());
    if !s.acct.balanced() {
        r.errors
            .push("closed-loop accounting does not balance".into());
    }
    if s.acct.completed() == 0 {
        r.errors.push("no request completed".into());
    }
}

fn run_serve(args: &Args, r: &mut Report) -> Result<(), String> {
    let plain = |p: &serve::Pool| Arc::clone(&p.model);
    if !args.trace {
        let ((pool, model, door), setup_s) = timed_setup(|| serve_setup(plain))?;
        let mut requests = Requests::new(args.seed);
        let before = ObsSnapshot::capture();
        let s = serve::closed_loop(
            &door,
            &pool,
            &model,
            &mut requests,
            Duration::from_secs(args.seconds),
        );
        let after = ObsSnapshot::capture();
        door.shutdown();
        record_loop(r, &s);
        end_to_end(
            r,
            delta(&after, &before, "rmq.iterations"),
            s.acct.completed(),
            s.wall,
            s.requests,
            setup_s,
        );
        return Ok(());
    }
    // Untraced, traced, untraced (a quarter, a half and a quarter of the
    // time, each on a fresh door): the untraced rate brackets the traced one,
    // so a steady drift in host speed cancels out of the overhead.
    let quarter = Duration::from_secs(args.seconds).div_f64(4.0);
    let untraced = |seed: u64, r: &mut Report| -> Result<(u64, Duration), String> {
        let (pool, model, door) = serve_setup(plain)?;
        let s = serve::closed_loop(&door, &pool, &model, &mut Requests::new(seed), quarter);
        door.shutdown();
        record_loop(r, &s);
        Ok((s.acct.completed(), s.wall))
    };
    let before = untraced(args.seed ^ 2, r)?;

    let timer_ns = timer_overhead_ns();
    let counted = |p: &serve::Pool| Arc::new(CountingModel::new(Arc::clone(&p.model)));
    let (pool, model, door) = serve_setup(counted)?;
    let mut requests = Requests::new(args.seed ^ 1);
    let obs_before = ObsSnapshot::capture();
    let calls_before = CostCalls::now();
    let door_before = door.stats();
    let shard_before = door.shard_service_stats(0);
    let s = serve::closed_loop(&door, &pool, &model, &mut requests, 2 * quarter);
    let calls = CostCalls::now().since(&calls_before);
    let obs_after = ObsSnapshot::capture();
    let door_after = door.stats();
    let shard_after = door.shard_service_stats(0);
    door.shutdown();
    record_loop(r, &s);
    let traced_rate = s.acct.completed() as f64 / s.wall.as_secs_f64();
    let after = untraced(args.seed ^ 3, r)?;
    let plain_rate = (before.0 + after.0) as f64 / (before.1 + after.1).as_secs_f64();

    // The replica over every template, once each, on the seed the template
    // index gives, checked bit for bit against `Rmq`.
    let mut split = ReplicaSamples::default();
    for (i, t) in pool.templates.iter().enumerate() {
        split
            .run(&*pool.model, t.query, i as u64, serve::BUDGET)
            .map_err(|e| format!("replica on template {}: {e}", serve::template_name(i)))?;
    }
    core_layers(r, &split);
    let slice_ns = obs_after
        .histogram("service.slice_us")
        .zip(obs_before.histogram("service.slice_us"))
        .map_or(0.0, |(a, b)| (a.sum - b.sum) as f64 * 1e3);
    cost_layers(
        r,
        &calls,
        delta(&obs_after, &obs_before, "rmq.iterations"),
        slice_ns,
        timer_ns,
    );
    frontdoor_layers(r, &s.submit_us, &door_before, &door_after);
    let completed = shard_after.completed - shard_before.completed;
    service_layers(
        r,
        Some(&shard_after),
        &s.warm_plans,
        ratio(
            shard_after.cache.hits - shard_before.cache.hits,
            shard_after.cache.lookups - shard_before.cache.lookups,
        ),
        ratio(
            shard_after.total_steps - shard_before.total_steps,
            completed,
        ),
    );
    parallel_layers(r, &obs_before, &obs_after, s.acct.completed());
    r.metric(
        "obs.trace_overhead_frac",
        plain_rate / traced_rate - 1.0,
        "fraction",
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("moqo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let result = match args.workload {
        Workload::QueryLarge => run_query_large(&args, &mut report),
        Workload::ServeMixed => run_serve(&args, &mut report),
    };
    if let Err(e) = result {
        report.fail(e);
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
