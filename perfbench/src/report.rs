//! Result assembly: percentiles, the per-layer accumulator of the
//! traced run, the self-time table, and the final JSON line.

use crate::replay::{BatchTrace, QueryRecord, Stage1, KINDS};
use crate::trace::{apportion, Span, LAYERS};

/// Nearest-rank percentile of an unsorted sample (0 when empty).
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a run prints: counts for the result line, metrics, and notes
/// (human-readable lines printed before the result line).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.wrong == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Engine counters over a window (the difference of two snapshots).
#[derive(Default, Clone, Copy)]
pub struct EngineWindow {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub division_hits: u64,
    pub division_misses: u64,
}

impl EngineWindow {
    pub fn between(a: &rmo_core::EngineStats, b: &rmo_core::EngineStats) -> EngineWindow {
        EngineWindow {
            hits: b.hits - a.hits,
            misses: b.misses - a.misses,
            evictions: b.evictions - a.evictions,
            division_hits: b.division_hits - a.division_hits,
            division_misses: b.division_misses - a.division_misses,
        }
    }
}

/// Gateway counters of the deterministic stream prefix.
#[derive(Default)]
pub struct GatewayWindow {
    pub arrivals: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub batches: u64,
    pub deadline_closes: u64,
    pub queue_wait_ticks: Vec<f64>,
    pub service_ticks: Vec<f64>,
}

/// Everything the traced run accumulates.
#[derive(Default)]
pub struct LayerAcc {
    pub self_ns: [f64; LAYERS.len()],
    pub untraced_ns: f64,
    pub traced_ns: f64,
    pub plan_ns: Vec<f64>,
    pub batches: u64,
    pub busy_sum_ns: f64,
    pub exec_ns: f64,
    pub imbalance: Vec<f64>,
    pub overhead_ns: Vec<f64>,
    pub steals: u64,
    pub forks: u64,
    pub records: Vec<QueryRecord>,
}

impl LayerAcc {
    /// One traced batch: its spans, the serial windows the coordinating
    /// thread spent outside the replay (planning, gateway work), and the
    /// replay itself.
    pub fn add_batch(
        &mut self,
        spans: &[Span],
        windows: &[(u64, u64)],
        bt: &BatchTrace,
        plan_ns: f64,
    ) {
        for &(from, to) in windows
            .iter()
            .chain(std::iter::once(&(bt.exec_from, bt.exec_to)))
        {
            apportion(spans, from, to, &mut self.self_ns);
            self.traced_ns += (to - from) as f64;
        }
        self.plan_ns.push(plan_ns);
        self.batches += 1;
        self.records.extend(bt.records.iter().cloned());
    }

    /// One batch's shard balance: its execution wall and each shard's
    /// busy time.
    pub fn add_busy(&mut self, wall_ns: f64, busy_ns: &[f64]) {
        let max = busy_ns.iter().copied().fold(0.0, f64::max);
        self.busy_sum_ns += busy_ns.iter().sum::<f64>();
        self.exec_ns += wall_ns * busy_ns.len() as f64;
        self.imbalance.push(ratio(max, mean(busy_ns)));
        self.overhead_ns.push(wall_ns - max);
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn finish(
        &self,
        out: &mut Outcome,
        stage1: &[Stage1],
        stages: &[[u64; 3]],
        engine: EngineWindow,
        gateway: &GatewayWindow,
        workload: &str,
    ) {
        let ms = |ns: f64| ns / 1e6;
        out.metric(
            "sim.stage1_ms",
            ms(stage1.iter().map(|s| s.ns as f64).sum()),
            "ms",
        );
        out.metric(
            "sim.stage1_rounds",
            stage1.iter().map(|s| s.rounds as f64).sum(),
            "rounds",
        );
        out.metric(
            "sim.stage1_messages",
            stage1.iter().map(|s| s.messages as f64).sum(),
            "messages",
        );

        let lookups = (engine.hits + engine.misses) as f64;
        out.metric(
            "engine.hit_rate",
            ratio(engine.hits as f64, lookups),
            "ratio",
        );
        out.metric("engine.misses", engine.misses as f64, "count");
        out.metric("engine.evictions", engine.evictions as f64, "count");
        let divisions = (engine.division_hits + engine.division_misses) as f64;
        out.metric(
            "engine.division_hit_rate",
            ratio(engine.division_hits as f64, divisions),
            "ratio",
        );

        let builds: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.build_ns)
            .map(|n| n as f64)
            .collect();
        let setup_messages: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.build_ns.is_some())
            .map(|r| r.setup_messages as f64)
            .collect();
        out.metric("pipeline.build_ms_p50", ms(pct(&builds, 50.0)), "ms");
        out.metric("pipeline.build_ms_total", ms(builds.iter().sum()), "ms");
        for (i, name) in [
            "pipeline.division_ms",
            "pipeline.shortcut_ms",
            "pipeline.waveplan_ms",
        ]
        .into_iter()
        .enumerate()
        {
            let per_build: Vec<f64> = stages.iter().map(|s| s[i] as f64).collect();
            out.metric(name, ms(mean(&per_build)), "ms");
        }
        out.metric("pipeline.setup_messages", mean(&setup_messages), "messages");
        out.metric(
            "pipeline.lookups_per_build",
            ratio(lookups, engine.misses as f64),
            "ratio",
        );
        let inside = self.records.iter().filter(|r| r.missed_inside_app).count();
        out.metric("pipeline.misses_inside_apps", inside as f64, "count");

        let solves: Vec<&QueryRecord> = self
            .records
            .iter()
            .filter(|r| r.solve_ns.is_some())
            .collect();
        let solve_ns: Vec<f64> = solves
            .iter()
            .filter_map(|r| r.solve_ns)
            .map(|n| n as f64)
            .collect();
        out.metric("solve.warm_ms_p50", ms(pct(&solve_ns, 50.0)), "ms");
        let per_solve = |f: fn(&QueryRecord) -> u64| {
            mean(&solves.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
        };
        out.metric("solve.warm_rounds", per_solve(|r| r.warm_rounds), "rounds");
        out.metric(
            "solve.warm_messages",
            per_solve(|r| r.warm_messages),
            "messages",
        );

        for (kind, name) in KINDS.iter().enumerate() {
            let of_kind: Vec<&QueryRecord> =
                self.records.iter().filter(|r| r.kind == kind).collect();
            let walls: Vec<f64> = of_kind.iter().map(|r| r.wall_ns as f64).collect();
            let units: f64 = of_kind.iter().map(|r| r.units as f64).sum();
            out.metric(format!("app.{name}.ms_p50"), ms(pct(&walls, 50.0)), "ms");
            out.metric(
                format!("app.{name}.ns_per_unit"),
                ratio(walls.iter().sum(), units),
                "ns",
            );
        }

        out.metric("sched.plan_ms", ms(mean(&self.plan_ns)), "ms");
        out.metric(
            "sched.utilization",
            ratio(self.busy_sum_ns, self.exec_ns),
            "ratio",
        );
        out.metric("sched.busy_imbalance", mean(&self.imbalance), "ratio");
        out.metric("sched.overhead_ms", ms(mean(&self.overhead_ns)), "ms");
        out.metric(
            "sched.steals",
            ratio(self.steals as f64, self.batches as f64),
            "1/batch",
        );
        out.metric(
            "sched.forks",
            ratio(self.forks as f64, self.batches as f64),
            "1/batch",
        );

        out.metric("gateway.batches", gateway.batches as f64, "count");
        out.metric(
            "gateway.batch_size_mean",
            ratio(gateway.admitted as f64, gateway.batches as f64),
            "queries",
        );
        out.metric(
            "gateway.deadline_close_share",
            ratio(gateway.deadline_closes as f64, gateway.batches as f64),
            "ratio",
        );
        out.metric(
            "gateway.queue_wait_ticks_p50",
            pct(&gateway.queue_wait_ticks, 50.0),
            "ticks",
        );
        out.metric(
            "gateway.service_ticks_p50",
            pct(&gateway.service_ticks, 50.0),
            "ticks",
        );
        out.metric("gateway.rejected", gateway.rejected as f64, "count");
        out.metric(
            "gateway.admit_share",
            ratio(gateway.admitted as f64, gateway.arrivals as f64),
            "ratio",
        );

        let self_sum: f64 = self.self_ns.iter().sum();
        for (i, layer) in LAYERS.iter().enumerate() {
            out.metric(
                format!("self.{}_ms", layer.name()),
                ms(self.self_ns[i]),
                "ms",
            );
        }
        out.metric("trace.untraced_ms", ms(self.untraced_ns), "ms");
        out.metric("trace.traced_ms", ms(self.traced_ns), "ms");
        out.metric(
            "trace.overhead_share",
            ratio(self.traced_ns - self.untraced_ns, self.untraced_ns),
            "ratio",
        );

        out.notes.push(format!(
            "self time per layer, {workload} (traced batches: {})",
            self.batches
        ));
        out.notes.push(format!(
            "  {:<10} {:>12} {:>8}",
            "layer", "self ms", "share"
        ));
        for (i, layer) in LAYERS.iter().enumerate() {
            out.notes.push(format!(
                "  {:<10} {:>12.3} {:>7.1}%",
                layer.name(),
                ms(self.self_ns[i]),
                100.0 * ratio(self.self_ns[i], self_sum)
            ));
        }
        out.notes.push(format!(
            "  {:<10} {:>12.3}   untraced {:.3} ms, tracing overhead {:+.1}%",
            "sum",
            ms(self_sum),
            ms(self.untraced_ns),
            100.0 * ratio(self.traced_ns - self.untraced_ns, self.untraced_ns)
        ));
        out.notes.push(format!(
            "  setup (not in the batch wall): stage 1 {:.3} ms over {} graphs",
            ms(stage1.iter().map(|s| s.ns as f64).sum()),
            stage1.len()
        ));
        out.notes.push(format!(
            "  useful/attempted: cache lookups per artifact build {:.2}, admitted/arrived {:.3}",
            ratio(lookups, engine.misses as f64),
            ratio(gateway.admitted as f64, gateway.arrivals as f64)
        ));
    }
}
