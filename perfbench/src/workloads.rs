//! The three workloads. Each sets up its fleet several times (timed,
//! `setup_s` is the median), runs a fixed deterministic prefix that
//! every count-type metric is taken from, then keeps serving until
//! `--seconds` have passed since measurement began.

use std::hint::black_box;
use std::time::Instant;

use rmo_apps::dispatch::{Query, QueryResponse};
use rmo_apps::service::{GraphId, PaCluster, ReplicaPolicy, ServeLog};
use rmo_apps::stream::{
    Arrival, ArrivalLog, BatchClose, StreamConfig, StreamEvent, StreamGateway, StreamReport,
};
use rmo_core::EngineConfig;

use crate::check::{check, Oracle};
use crate::gen::{self, Deck, FleetGraph, Mix, Pool, Rng};
use crate::replay::{Mirror, Stage1};
use crate::report::{mean, pct, ratio, EngineWindow, GatewayWindow, LayerAcc, Outcome};
use crate::trace::{to_jsonl, Layer, Tracer, NO_PARENT, NO_QUERY};
use crate::Args;

/// Shard threads (the benchmark host has two cores).
const SHARDS: usize = 2;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// The latency model's service rate (the gateway's default).
const WORK_PER_TICK: f64 = 4096.0;
/// Partitions whose stage 2–4 build is replayed stage by stage.
const STAGE_SAMPLES: usize = 48;

/// PA workloads: queries per `serve` call, in whole rounds of the
/// 30-query mix deck. A batch holds enough work (tens of milliseconds)
/// that its wall, and above all its tail, is query work rather than the
/// per-call start of the shard threads, whose cost swings with host
/// scheduling. A pooled query costs about an eighth of a fresh one, so
/// `pa_pooled` batches are eight times longer.
fn batch_len(fresh: bool) -> usize {
    if fresh {
        120
    } else {
        960
    }
}

/// Queries in the deterministic prefix, on both PA workloads.
const PA_PREFIX_QUERIES: usize = 1920;
const PA_WARMUP_BATCHES: u64 = 1;
/// Batches also served on a second cluster with `serve_sequential`.
const SEQ_CHECK_BATCHES: u64 = 2;

/// Stream: arrivals per `run_with` call, the prefix, and the rates.
const CHUNK: usize = 200;
const PREFIX_CHUNKS: u64 = 20;
const WARMUP_ARRIVALS: usize = 200;
/// Arrivals per kilotick of the measured traffic.
const MAIN_RATE: f64 = 400.0;
/// The capacity ladder: `LADDER_BASE · 2^(i/12)` for `i < RUNGS`.
const LADDER_BASE: f64 = 100.0;
const RUNGS: i64 = 60;
/// Long enough that a probe's p99 rests on 30 arrivals, so that where
/// a seed's few CDS queries fall moves the rung little.
const PROBE_ARRIVALS: usize = 3000;
/// A rung is sustained when no arrival is rejected, the p99 latency is
/// within this many ticks, and the backlog does not grow.
const P99_LIMIT_TICKS: f64 = 400.0;
const ZIPF_EXPONENT: f64 = 1.2;
/// Split the hot graph once its group outweighs 0.75 × a shard's mean load.
const REPLICA_THRESHOLD: f64 = 0.75;

/// The gateway's batching: up to 64 queries or 128 ticks, with 256
/// queries of headroom per shard. Batches average about 47 queries, so
/// their wall is query work, as on `pa_*`; the defaults (16 queries or
/// 32 ticks) made batches of about 12.
fn stream_config() -> StreamConfig {
    StreamConfig::new()
        .with_max_batch(64)
        .with_max_wait_ticks(128)
        .with_high_water(256)
}

fn fleet_index(id: GraphId) -> usize {
    (id.0 - 100) as usize
}

fn register(fleet: &[FleetGraph]) -> PaCluster {
    let mut cluster = PaCluster::new(SHARDS);
    for f in fleet {
        cluster
            .register(f.id, f.graph.clone(), EngineConfig::new())
            .expect("fleet graphs are connected");
    }
    cluster
}

/// One closed-loop batch: exactly `batch_len / 6` queries per fleet graph
/// and exactly the PA-service mix, in seeded order.
fn pa_batch(
    fleet: &[FleetGraph],
    pools: &[Pool],
    fresh: bool,
    seed: u64,
    b: u64,
) -> Vec<(GraphId, Query)> {
    let mut rng = Rng::derive(seed, &[0xBA7C, b]);
    let len = batch_len(fresh);
    let mut graphs = Deck::new(&vec![len / fleet.len(); fleet.len()]);
    let mut mix = Mix::pa();
    (0..len)
        .map(|_| {
            let i = graphs.deal(&mut rng);
            let pool = (!fresh).then(|| &pools[i]);
            (fleet[i].id, mix.next(&fleet[i].graph, pool, &mut rng))
        })
        .collect()
}

type Served = Vec<(Vec<(GraphId, Query)>, ServeLog)>;

/// Registration, stage 1 on every graph and the warm-up batches.
fn setup_pa(fleet: &[FleetGraph], pools: &[Pool], fresh: bool, seed: u64) -> (PaCluster, Served) {
    let mut cluster = register(fleet);
    let mut rng = Rng::derive(seed, &[0xC0FE]);
    let cover: Vec<(GraphId, Query)> = fleet
        .iter()
        .zip(pools)
        .flat_map(|(f, pool)| {
            let queries = if fresh {
                vec![Mix::pa().next(&f.graph, None, &mut rng)]
            } else {
                pool.coverage(&f.graph, &mut rng)
            };
            queries.into_iter().map(move |q| (f.id, q))
        })
        .collect();
    let mut batches = vec![cover];
    batches
        .extend((0..PA_WARMUP_BATCHES).map(|w| pa_batch(fleet, pools, fresh, seed, u64::MAX - w)));
    let served = batches
        .into_iter()
        .map(|batch| {
            let log = cluster.serve(&batch).log;
            (batch, log)
        })
        .collect();
    (cluster, served)
}

/// Counts shared by both loops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    answered: u64,
    first_error: Option<String>,
}

impl Tally {
    fn answer(&mut self, oracle: &Oracle<'_>, query: &Query, resp: &QueryResponse) {
        self.attempted += 1;
        if let QueryResponse::Failed(reason) = resp {
            self.failed += 1;
            self.first_error
                .get_or_insert(format!("failed response: {reason}"));
            return;
        }
        self.answered += 1;
        if let Err(e) = check(oracle, query, resp) {
            self.wrong += 1;
            self.failed += 1;
            self.first_error.get_or_insert(format!("wrong answer: {e}"));
        }
    }

    /// A divergence between two executions that must agree.
    fn diverged(&mut self, what: &str, count: usize) {
        if count > 0 {
            self.wrong += count as u64;
            self.failed += count as u64;
            self.first_error
                .get_or_insert(format!("{count} responses differ: {what}"));
        }
    }

    fn into_outcome(self) -> Outcome {
        let mut out = Outcome {
            attempted: self.attempted,
            failed: self.failed,
            wrong: self.wrong,
            ..Outcome::default()
        };
        if let Some(e) = self.first_error {
            out.notes.push(format!("first error: {e}"));
        }
        out
    }
}

/// The traced run's state: the mirror, the span buffer, the tallies.
struct Traced<'f> {
    mirror: Mirror<'f>,
    stage1: Vec<Stage1>,
    tracer: Tracer,
    acc: LayerAcc,
    qid: u64,
}

impl<'f> Traced<'f> {
    fn new(fleet: &'f [FleetGraph]) -> Traced<'f> {
        let (mut mirror, stage1) = Mirror::new(fleet.iter().map(|f| (f.id, &f.graph)));
        mirror.keep_built = STAGE_SAMPLES;
        Traced {
            mirror,
            stage1,
            tracer: Tracer::new(Instant::now(), 0),
            acc: LayerAcc::default(),
            qid: 0,
        }
    }

    /// Replays batches that only move engine state (warm-up, probes):
    /// executed like the measured ones, their spans dropped.
    fn follow(&mut self, batches: &[(Vec<(GraphId, Query)>, ServeLog)]) {
        let mut scratch = Tracer::new(self.tracer.base(), 0);
        let sampled = self.mirror.built.len();
        for (batch, log) in batches {
            self.mirror.replay(&mut scratch, batch, log, 0);
        }
        // The stage replay samples measured builds only.
        self.mirror.built.truncate(sampled);
    }

    /// Replays one measured batch; returns how many responses differ
    /// from the cluster's. `windows` are the coordinating thread's
    /// serial spans before the replay, the plan first. With `gateway`,
    /// the gateway's two per-response copies (the event and the
    /// outcome) follow it, and the batch's shard balance is the
    /// mirror's: the gateway exposes no per-batch `ShardStats`.
    #[allow(clippy::too_many_arguments)]
    fn batch(
        &mut self,
        queries: &[(GraphId, Query)],
        log: &ServeLog,
        mut windows: Vec<(u64, u64)>,
        first_span: usize,
        cluster_responses: &[&QueryResponse],
        gateway: bool,
    ) -> usize {
        let bt = self.mirror.replay(&mut self.tracer, queries, log, self.qid);
        self.qid += queries.len() as u64;
        if gateway {
            let busy: Vec<f64> = bt.busy_ns.iter().map(|&b| b as f64).collect();
            self.acc.add_busy((bt.exec_to - bt.exec_from) as f64, &busy);
            let t0 = self.tracer.now();
            for resp in &bt.responses {
                black_box(resp.clone());
                black_box(resp.clone());
            }
            let t1 = self.tracer.now();
            self.tracer
                .record("relay", Layer::Stream, t0, t1, NO_PARENT, NO_QUERY);
            windows.push((t0, t1));
        }
        let plan_ns = windows.first().map_or(0.0, |&(a, b)| (b - a) as f64);
        self.acc.steals += log.steals.len() as u64;
        self.acc.forks += log.forks.len() as u64;
        let spans = &self.tracer.spans[first_span..];
        self.acc.add_batch(spans, &windows, &bt, plan_ns);
        let differ = bt
            .responses
            .iter()
            .zip(cluster_responses)
            .filter(|(a, b)| a != *b)
            .count();
        differ + bt.responses.len().abs_diff(cluster_responses.len())
    }

    fn plan_span(
        &mut self,
        cluster: &PaCluster,
        queries: &[(GraphId, Query)],
        name: &'static str,
        layer: Layer,
    ) -> (u64, u64) {
        let t0 = self.tracer.now();
        black_box(cluster.planned_execution(queries));
        let t1 = self.tracer.now();
        self.tracer.record(name, layer, t0, t1, NO_PARENT, NO_QUERY);
        (t0, t1)
    }

    fn finish(self, out: &mut Outcome, engine: EngineWindow, gateway: &GatewayWindow, args: &Args) {
        let stages: Vec<[u64; 3]> = self
            .mirror
            .built
            .iter()
            .map(|b| self.mirror.stage_replay(b))
            .collect();
        self.acc
            .finish(out, &self.stage1, &stages, engine, gateway, &args.workload);
        let dir = std::path::Path::new(".bench_out");
        // One file per workload: the latest traced run's spans.
        let path = dir.join(format!("trace-{}.jsonl", args.workload));
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, to_jsonl(&self.tracer.spans)));
        match written {
            Ok(()) => out.notes.push(format!(
                "spans: {} written to {}",
                self.tracer.spans.len(),
                path.display()
            )),
            Err(e) => out.notes.push(format!("spans not written: {e}")),
        }
    }
}

/// `pa_pooled` (`fresh = false`) and `pa_fresh` (`fresh = true`): one
/// closed-loop client sending `batch_len`-query batches to `PaCluster::serve`.
pub fn pa(args: &Args, fresh: bool) -> Outcome {
    let fleet = gen::fleet(args.seed);
    let pools = gen::pools(&fleet, args.seed);
    let oracles: Vec<Oracle<'_>> = fleet.iter().map(|f| Oracle::new(&f.graph)).collect();

    // The first batches' answers from `serve_sequential` on an
    // identically prepared cluster, dropped before the measured one is
    // built so that `peak_rss_mb` counts one cluster.
    let sequential: Vec<Vec<QueryResponse>> = {
        let (mut cluster, _) = setup_pa(&fleet, &pools, fresh, args.seed);
        (0..SEQ_CHECK_BATCHES)
            .map(|b| {
                let batch = pa_batch(&fleet, &pools, fresh, args.seed, b);
                cluster.serve_sequential(&batch).responses
            })
            .collect()
    };

    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let s = setup_pa(&fleet, &pools, fresh, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    let (mut cluster, warmup) = last.expect("at least one set-up");
    let mut traced = args.trace.then(|| Traced::new(&fleet));
    if let Some(t) = traced.as_mut() {
        t.follow(&warmup);
    }

    let mut tally = Tally::default();
    let mut batch_ms = Vec::new();
    let mut served: Vec<(f64, f64)> = Vec::new();
    let (mut rounds, mut messages, mut prefix_queries) = (0u64, 0u64, 0u64);
    let mut latencies: Vec<f64> = Vec::new();
    let mut clock = 0f64;
    let engine_start = cluster.stats().engine;
    let mut engine = EngineWindow::default();
    let prefix_batches = (PA_PREFIX_QUERIES / batch_len(fresh)) as u64;
    let start = Instant::now();
    let mut b = 0u64;
    while b < prefix_batches || start.elapsed().as_secs_f64() < args.seconds {
        let batch = pa_batch(&fleet, &pools, fresh, args.seed, b);
        let prefix = b < prefix_batches;
        let first_span = traced.as_ref().map_or(0, |t| t.tracer.spans.len());
        let mut windows = Vec::new();
        if let Some(t) = traced.as_mut() {
            windows.push(t.plan_span(&cluster, &batch, "planned_execution", Layer::Sched));
        }
        let plan = prefix.then(|| cluster.planned_execution(&batch));

        let t = Instant::now();
        let report = cluster.serve(&batch);
        let wall = t.elapsed();
        batch_ms.push(wall.as_secs_f64() * 1e3);
        served.push((ok_count(&report.responses) as f64, wall.as_secs_f64()));

        for ((id, q), resp) in batch.iter().zip(&report.responses) {
            tally.answer(&oracles[fleet_index(*id)], q, resp);
        }
        if let Some(seq) = sequential.get(b as usize) {
            let differ = seq
                .iter()
                .zip(&report.responses)
                .filter(|(a, b)| a != b)
                .count();
            tally.diverged("threaded serve vs serve_sequential", differ);
        }
        if let Some(plan) = plan {
            // Closed loop: the batch is submitted when the previous one
            // is done; each shard retires its planned queries in order
            // at `WORK_PER_TICK` cost units per (fractional) tick.
            let mut done = clock;
            for shard in &plan {
                let mut tick = clock;
                for &idx in shard {
                    let cost = report.responses[idx].cost();
                    tick += (cost.rounds as u64 + cost.messages) as f64 / WORK_PER_TICK;
                    latencies.push(tick - clock);
                }
                done = done.max(tick);
            }
            clock = done;
            for resp in &report.responses {
                rounds += resp.cost().rounds as u64;
                messages += resp.cost().messages;
            }
            prefix_queries += batch.len() as u64;
            if b + 1 == prefix_batches {
                engine = EngineWindow::between(&engine_start, &cluster.stats().engine);
            }
        }
        if let Some(t) = traced.as_mut() {
            t.acc.untraced_ns += wall.as_nanos() as f64;
            let busy: Vec<f64> = report
                .stats
                .per_shard
                .iter()
                .map(|s| s.busy.as_nanos() as f64)
                .collect();
            t.acc.add_busy(report.wall.as_nanos() as f64, &busy);
            let responses: Vec<&QueryResponse> = report.responses.iter().collect();
            let differ = t.batch(&batch, &report.log, windows, first_span, &responses, false);
            tally.diverged("traced replay vs serve", differ);
        }
        b += 1;
    }

    let answered = tally.answered as f64;
    let serve_s: f64 = served.iter().map(|w| w.1).sum();
    let mut out = tally.into_outcome();
    out.notes.push(format!(
        "{}: {b} batches of {} ({prefix_batches} in the deterministic prefix), {} queries answered in {serve_s:.3} s of serve wall",
        args.workload,
        batch_len(fresh),
        answered
    ));
    out.notes.push(format!(
        "batch_ms over {} samples; p95 is the median window p95 ({:?} windows, samples per window, beyond the p95); latency ticks over {} prefix queries",
        batch_ms.len(),
        p95_support(batch_ms.len()),
        latencies.len()
    ));
    match traced {
        Some(t) => t.finish(&mut out, engine, &GatewayWindow::default(), args),
        None => {
            let e2e = EndToEnd {
                setup_s: pct(&setups, 50.0),
                throughput_qps: windowed_rate(&served),
                batch_ms,
                latencies,
                sustained_rate: ratio(prefix_queries as f64 * 1000.0, clock),
                rounds_per_query: ratio(rounds as f64, prefix_queries as f64),
                messages_per_query: ratio(messages as f64, prefix_queries as f64),
            };
            e2e.emit(&mut out);
        }
    }
    out
}

struct EndToEnd {
    setup_s: f64,
    throughput_qps: f64,
    batch_ms: Vec<f64>,
    latencies: Vec<f64>,
    sustained_rate: f64,
    rounds_per_query: f64,
    messages_per_query: f64,
}

impl EndToEnd {
    fn emit(self, out: &mut Outcome) {
        out.metric("setup_s", self.setup_s, "s");
        out.metric("throughput_qps", self.throughput_qps, "1/s");
        out.metric("batch_ms_p50", pct(&self.batch_ms, 50.0), "ms");
        out.metric("batch_ms_p95", windowed_p95(&self.batch_ms), "ms");
        out.metric("latency_ticks_p50", pct(&self.latencies, 50.0), "ticks");
        out.metric("latency_ticks_p99", pct(&self.latencies, 99.0), "ticks");
        out.metric("sustained_rate", self.sustained_rate, "1/ktick");
        out.metric("rounds_per_query", self.rounds_per_query, "rounds");
        out.metric("messages_per_query", self.messages_per_query, "messages");
        out.metric(
            "answered_share",
            ratio((out.attempted - out.failed) as f64, out.attempted as f64),
            "ratio",
        );
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
}

/// Consecutive windows a run is cut into for `throughput_qps` and
/// `batch_ms_p95`, each reported as the median window: a host stall
/// that covers a few percent of a run moves one window, not the result.
const WINDOWS: usize = 5;
/// Fewest samples in a `batch_ms_p95` window, so that each window's
/// p95 has at least 10 samples beyond it.
const P95_WINDOW_MIN: usize = 200;

fn p95_windows(n: usize) -> usize {
    (n / P95_WINDOW_MIN).clamp(1, WINDOWS)
}

/// The median over up to `WINDOWS` consecutive windows of each
/// window's p95.
fn windowed_p95(samples: &[f64]) -> f64 {
    let per = samples.len().div_ceil(p95_windows(samples.len())).max(1);
    let tails: Vec<f64> = samples.chunks(per).map(|w| pct(w, 95.0)).collect();
    pct(&tails, 50.0)
}

/// The median over `WINDOWS` consecutive windows of answered queries
/// per second of serving wall, from `(answered, seconds)` per call.
fn windowed_rate(served: &[(f64, f64)]) -> f64 {
    let per = served.len().div_ceil(WINDOWS).max(1);
    let rates: Vec<f64> = served
        .chunks(per)
        .map(|w| ratio(w.iter().map(|x| x.0).sum(), w.iter().map(|x| x.1).sum()))
        .collect();
    pct(&rates, 50.0)
}

fn ok_count(responses: &[QueryResponse]) -> usize {
    responses.iter().filter(|r| r.is_ok()).count()
}

/// Windows, samples per window, and samples above the p95 in each.
fn p95_support(n: usize) -> (usize, usize, usize) {
    let windows = p95_windows(n);
    let per = n / windows;
    (windows, per, per - (0.95 * per as f64).ceil() as usize)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An open-loop trace: zipf-popular graphs and the analytics mix, both
/// exact per 100 arrivals, with Poisson arrivals at `rate` per
/// kilotick. The queries depend on `(seed, tag)` only, so one tag at
/// several rates is one trace replayed faster or slower.
fn stream_trace(
    fleet: &[FleetGraph],
    pools: &[Pool],
    seed: u64,
    tag: u64,
    count: usize,
    rate: f64,
) -> Vec<Arrival> {
    let mut rng = Rng::derive(seed, &[0x57EA, tag]);
    let ticks = gen::arrival_ticks(count, rate, &mut Rng::derive(seed, &[0x71C5, tag]));
    let mut graphs = Deck::new(&gen::zipf_counts(fleet.len(), ZIPF_EXPONENT, 100));
    let mut mix = Mix::analytics();
    ticks
        .into_iter()
        .map(|tick| {
            let i = graphs.deal(&mut rng);
            Arrival {
                tick,
                graph: fleet[i].id,
                query: mix.next(&fleet[i].graph, Some(&pools[i]), &mut rng),
            }
        })
        .collect()
}

fn setup_stream(fleet: &[FleetGraph], pools: &[Pool], seed: u64) -> (StreamGateway, Served) {
    let mut cluster = register(fleet);
    cluster.set_replica_policy(ReplicaPolicy::new(REPLICA_THRESHOLD, SHARDS));
    let mut gateway = StreamGateway::new(cluster, stream_config());
    let trace = stream_trace(fleet, pools, seed, 0x3A7, WARMUP_ARRIVALS, MAIN_RATE);
    let report = gateway.run(&trace);
    let served = batches_of(&trace, &report.log);
    (gateway, served)
}

/// The cluster batches a gateway run executed, with their placements.
fn batches_of(trace: &[Arrival], log: &ArrivalLog) -> Served {
    log.batches
        .iter()
        .map(|b| {
            let queries = b
                .queries
                .iter()
                .map(|&(seq, _)| (trace[seq].graph, trace[seq].query.clone()))
                .collect();
            (queries, b.serve.clone())
        })
        .collect()
}

/// Whether a probe run sustained its rate: nothing rejected, p99
/// within the limit, and the last quarter of arrivals waited no longer
/// than twice the first quarter plus one batching deadline.
fn sustained(report: &StreamReport) -> bool {
    let lat: Vec<f64> = report
        .outcomes
        .iter()
        .filter_map(|o| o.latency())
        .map(|l| l as f64)
        .collect();
    let q = lat.len() / 4;
    let growing = q > 0
        && mean(&lat[lat.len() - q..])
            > 2.0 * mean(&lat[..q]) + stream_config().max_wait_ticks as f64;
    report.stats.rejected == 0 && pct(&lat, 99.0) <= P99_LIMIT_TICKS && !growing
}

fn rung(i: i64) -> f64 {
    LADDER_BASE * 2f64.powf(i as f64 / 12.0)
}

/// `analytics_stream`: an open loop through `StreamGateway::run_with`.
pub fn stream(args: &Args) -> Outcome {
    let fleet = gen::fleet(args.seed);
    let pools = gen::pools(&fleet, args.seed);
    let oracles: Vec<Oracle<'_>> = fleet.iter().map(|f| Oracle::new(&f.graph)).collect();

    // The first run's outcomes from `run_sequential` on an identically
    // prepared gateway, dropped before the measured one is built so
    // that `peak_rss_mb` counts one cluster.
    let sequential = {
        let (mut gateway, _) = setup_stream(&fleet, &pools, args.seed);
        let trace = stream_trace(&fleet, &pools, args.seed, 0xC000, CHUNK, MAIN_RATE);
        gateway.run_sequential(&trace).outcomes
    };

    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let s = setup_stream(&fleet, &pools, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    let (mut gateway, warmup) = last.expect("at least one set-up");
    let mut traced = args.trace.then(|| Traced::new(&fleet));
    if let Some(t) = traced.as_mut() {
        t.follow(&warmup);
    }

    let mut tally = Tally::default();
    let mut batch_ms = Vec::new();
    let mut served: Vec<(f64, f64)> = Vec::new();
    let (mut rounds, mut messages, mut prefix_queries) = (0u64, 0u64, 0u64);
    let mut latencies: Vec<f64> = Vec::new();
    let mut gw = GatewayWindow::default();
    let engine_start = gateway.cluster().stats().engine;
    let mut engine = EngineWindow::default();
    let mut sustained_rate = 0.0;
    let mut probes = 0;
    let start = Instant::now();
    let mut c = 0u64;
    while c < PREFIX_CHUNKS || start.elapsed().as_secs_f64() < args.seconds {
        let trace = stream_trace(&fleet, &pools, args.seed, 0xC000 + c, CHUNK, MAIN_RATE);
        let mut done_at: Vec<Option<Instant>> = vec![None; trace.len()];
        let mut sink = |event: StreamEvent| {
            if let StreamEvent::Response { seq, .. } = event {
                done_at[seq] = Some(Instant::now());
            }
        };
        let t = Instant::now();
        let report = gateway.run_with(&trace, &mut sink);
        let wall = t.elapsed();
        let ok = report
            .outcomes
            .iter()
            .filter(|o| matches!(&o.result, Ok(r) if r.is_ok()))
            .count();
        served.push((ok as f64, wall.as_secs_f64()));

        // Wall time per batch: from the previous batch's last response
        // (or the run's start) to this batch's last response.
        let mut batch_end: Vec<Option<Instant>> = vec![None; report.log.batches.len()];
        for (seq, o) in report.outcomes.iter().enumerate() {
            if let (Some(batch), Some(at)) = (o.batch, done_at[seq]) {
                batch_end[batch] = Some(batch_end[batch].map_or(at, |e: Instant| e.max(at)));
            }
        }
        let mut prev = t;
        for end in batch_end.into_iter().flatten() {
            batch_ms.push(end.duration_since(prev).as_secs_f64() * 1e3);
            prev = end;
        }

        for (arrival, o) in trace.iter().zip(&report.outcomes) {
            match &o.result {
                Ok(resp) => {
                    tally.answer(&oracles[fleet_index(arrival.graph)], &arrival.query, resp)
                }
                Err(reason) => {
                    tally.attempted += 1;
                    tally.failed += 1;
                    tally
                        .first_error
                        .get_or_insert(format!("rejected: {reason}"));
                }
            }
        }
        if c == 0 {
            let differ = sequential
                .iter()
                .zip(&report.outcomes)
                .filter(|(a, b)| a != b)
                .count();
            tally.diverged("threaded gateway vs run_sequential", differ);
        }
        if c < PREFIX_CHUNKS {
            latencies.extend(
                report
                    .outcomes
                    .iter()
                    .filter_map(|o| o.latency())
                    .map(|l| l as f64),
            );
            for o in &report.outcomes {
                if let Ok(resp) = &o.result {
                    rounds += resp.cost().rounds as u64;
                    messages += resp.cost().messages;
                }
            }
            prefix_queries += report.outcomes.len() as u64;
            gw.arrivals += report.stats.arrivals;
            gw.admitted += report.stats.admitted;
            gw.rejected += report.stats.rejected;
            gw.batches += report.stats.batches;
            gw.deadline_closes += report
                .log
                .batches
                .iter()
                .filter(|b| b.closed_by == BatchClose::Deadline)
                .count() as u64;
            for batch in &report.log.batches {
                for &(seq, tick) in &batch.queries {
                    gw.queue_wait_ticks
                        .push(batch.start_tick.saturating_sub(tick) as f64);
                    if let Some(done) = report.outcomes[seq].done_tick {
                        gw.service_ticks
                            .push(done.saturating_sub(batch.start_tick) as f64);
                    }
                }
            }
            if c + 1 == PREFIX_CHUNKS {
                engine = EngineWindow::between(&engine_start, &gateway.cluster().stats().engine);
            }
        }
        if let Some(t) = traced.as_mut() {
            t.acc.untraced_ns += wall.as_nanos() as f64;
            for (record, (queries, log)) in report
                .log
                .batches
                .iter()
                .zip(batches_of(&trace, &report.log))
            {
                let first_span = t.tracer.spans.len();
                let plan = t.plan_span(
                    gateway.cluster(),
                    &queries,
                    "planned_execution",
                    Layer::Sched,
                );
                let model = t.plan_span(gateway.cluster(), &queries, "model_plan", Layer::Stream);
                let responses: Vec<&QueryResponse> = record
                    .queries
                    .iter()
                    .filter_map(|&(seq, _)| report.outcomes[seq].result.as_ref().ok())
                    .collect();
                let differ = t.batch(
                    &queries,
                    &log,
                    vec![plan, model],
                    first_span,
                    &responses,
                    true,
                );
                tally.diverged("traced replay vs gateway", differ);
            }
        }
        if c + 1 == PREFIX_CHUNKS {
            // The capacity ladder, by bisection over the fixed rungs; it
            // runs once, right after the prefix.
            let (mut lo, mut hi) = (-1i64, RUNGS);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                let trace =
                    stream_trace(&fleet, &pools, args.seed, 0x9B0, PROBE_ARRIVALS, rung(mid));
                let report = gateway.run(&trace);
                probes += 1;
                if let Some(t) = traced.as_mut() {
                    t.follow(&batches_of(&trace, &report.log));
                }
                if sustained(&report) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            // Below the ladder reads as half its lowest rung, never 0.
            sustained_rate = if lo >= 0 { rung(lo) } else { rung(0) / 2.0 };
        }
        c += 1;
    }

    let answered = tally.answered as f64;
    let serve_s: f64 = served.iter().map(|w| w.1).sum();
    let mut out = tally.into_outcome();
    out.notes.push(format!(
        "{}: {c} runs of {CHUNK} arrivals at {MAIN_RATE}/ktick ({PREFIX_CHUNKS} in the deterministic prefix), {probes} ladder probes, {answered} queries answered in {serve_s:.3} s of gateway wall",
        args.workload
    ));
    out.notes.push(format!(
        "batch_ms over {} samples; p95 is the median window p95 ({:?} windows, samples per window, beyond the p95); latency ticks over {} prefix arrivals (p99 limit {P99_LIMIT_TICKS} ticks)",
        batch_ms.len(),
        p95_support(batch_ms.len()),
        latencies.len()
    ));
    match traced {
        Some(t) => t.finish(&mut out, engine, &gw, args),
        None => EndToEnd {
            setup_s: pct(&setups, 50.0),
            throughput_qps: windowed_rate(&served),
            batch_ms,
            latencies,
            sustained_rate,
            rounds_per_query: ratio(rounds as f64, prefix_queries as f64),
            messages_per_query: ratio(messages as f64, prefix_queries as f64),
        }
        .emit(&mut out),
    }
    out
}
