//! The traced run's executor. It re-executes a batch the cluster just
//! served, on the benchmark's own mirror of the cluster's warm engines,
//! with the same placement (the batch's `ServeLog`) on the same number
//! of shard threads — but it calls each layer's public function itself
//! (`PaEngine::pipeline_for`, `PaEngine::solve`, `dispatch::run_query`,
//! `EngineCore::fork`/`absorb`) so that a span can be put around each.
//! Its responses must equal the cluster's, which the caller checks.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use rmo_apps::dispatch::{run_query, Query, QueryResponse, VerifyCheck};
use rmo_apps::service::{GraphId, ServeLog};
use rmo_core::subparts_det::deterministic_division;
use rmo_core::verify_block::verify_block_parameter;
use rmo_core::{
    word_fingerprint, Aggregate, EngineConfig, EngineCore, PaEngine, PaError, PaInstance, PaSetup,
    Variant, WavePlan,
};
use rmo_graph::{EdgeId, Graph, NodeId, Partition};
use rmo_shortcut::alg8::{construct_deterministic, DetParams};

use crate::gen::component_partition;
use crate::trace::{Layer, Tracer, NO_QUERY};

/// The query kinds, in the order the per-kind metrics are reported.
pub const KINDS: [&str; 9] = [
    "pa",
    "mst",
    "sssp",
    "mincut",
    "kdom",
    "eccentricity",
    "cds",
    "components",
    "verify",
];

pub fn kind_of(q: &Query) -> usize {
    match q {
        Query::Pa { .. } => 0,
        Query::Mst => 1,
        Query::Sssp { .. } => 2,
        Query::MinCut { .. } => 3,
        Query::Kdom { .. } => 4,
        Query::Eccentricity { .. } => 5,
        Query::Cds { .. } => 6,
        Query::Components { .. } => 7,
        Query::Verify { .. } => 8,
    }
}

/// What the traced run measured for one query.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    pub kind: usize,
    /// The whole query, prewarm included.
    pub wall_ns: u64,
    /// Modeled rounds + messages of the response.
    pub units: u64,
    /// `pipeline_for` when it built artifacts (the miss path).
    pub build_ns: Option<u64>,
    /// Stage 2–4 setup cost of that build.
    pub setup_rounds: u64,
    pub setup_messages: u64,
    /// The warm `PaEngine::solve` of a `Pa` query, with the wave's cost
    /// (the setup share a first solve is charged taken out).
    pub solve_ns: Option<u64>,
    pub warm_rounds: u64,
    pub warm_messages: u64,
    /// The query missed the artifact cache inside the app, out of the
    /// traced executor's sight (an evicted pooled partition, or the
    /// app's own partitions such as Borůvka's).
    pub missed_inside_app: bool,
}

/// A partition the traced run saw built, kept for the stage replay.
pub struct Built {
    pub graph: GraphId,
    pub assignment: Vec<usize>,
}

pub struct BatchTrace {
    pub responses: Vec<QueryResponse>,
    pub records: Vec<QueryRecord>,
    /// Per shard thread: time inside its shard span.
    pub busy_ns: Vec<u64>,
    pub exec_from: u64,
    pub exec_to: u64,
}

/// The benchmark's mirror of the cluster's parked engines.
pub struct Mirror<'f> {
    graphs: BTreeMap<GraphId, &'f Graph>,
    cores: BTreeMap<GraphId, EngineCore>,
    /// Per graph: keys of the partitions already prewarmed, so pooled
    /// traffic does not pay the prewarm again.
    seen: BTreeMap<GraphId, BTreeSet<u64>>,
    pub built: Vec<Built>,
    pub keep_built: usize,
}

/// Stage 1 as measured on one mirror engine.
pub struct Stage1 {
    pub ns: u64,
    pub rounds: u64,
    pub messages: u64,
}

impl<'f> Mirror<'f> {
    /// Builds one engine per graph and runs stage 1 (election + BFS on
    /// the simulator) on each, timed.
    pub fn new(fleet: impl IntoIterator<Item = (GraphId, &'f Graph)>) -> (Mirror<'f>, Vec<Stage1>) {
        let mut mirror = Mirror {
            graphs: BTreeMap::new(),
            cores: BTreeMap::new(),
            seen: BTreeMap::new(),
            built: Vec::new(),
            keep_built: 0,
        };
        let mut stage1 = Vec::new();
        for (id, graph) in fleet {
            let start = Instant::now();
            let engine = PaEngine::new(graph, EngineConfig::new());
            let _ = engine.tree();
            let ns = start.elapsed().as_nanos() as u64;
            let base = engine.stats().base_cost;
            stage1.push(Stage1 {
                ns,
                rounds: base.rounds as u64,
                messages: base.messages,
            });
            mirror.graphs.insert(id, graph);
            mirror.cores.insert(id, engine.into_core());
            mirror.seen.insert(id, BTreeSet::new());
        }
        (mirror, stage1)
    }

    /// Re-executes `queries` with `log`'s placement, recording spans.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        queries: &[(GraphId, Query)],
        log: &ServeLog,
        qid_base: u64,
    ) -> BatchTrace {
        let shards = log.assignments.len();
        let exec_from = tracer.now();
        let root = tracer.open("execute", Layer::Service, crate::trace::NO_PARENT, NO_QUERY);

        // Forks first, on the calling thread, like the cluster.
        let fork_span = tracer.open("fork", Layer::Service, root, NO_QUERY);
        let mut split: BTreeMap<GraphId, usize> = BTreeMap::new();
        let mut replica_cores: BTreeMap<(GraphId, usize), EngineCore> = BTreeMap::new();
        for event in &log.forks {
            if let Some(core) = self.cores.remove(&event.graph) {
                for r in 1..event.replicas {
                    replica_cores.insert((event.graph, r), core.fork());
                }
                replica_cores.insert((event.graph, 0), core);
                split.insert(event.graph, event.replicas);
            }
        }
        tracer.close(fork_span);

        let chunks = group_chunks(queries, &split);
        let mut work: Vec<Vec<Group>> = (0..shards).map(|_| Vec::new()).collect();
        for (s, ids) in log.assignments.iter().enumerate() {
            for (j, &id) in ids.iter().enumerate() {
                let replica = log
                    .replica_indices
                    .get(s)
                    .and_then(|r| r.get(j))
                    .copied()
                    .unwrap_or(0);
                // A split graph's replicas each take a copy of its seen
                // set (replica 0's comes back); a whole group takes it.
                let (core, seen) = if split.contains_key(&id) {
                    (
                        replica_cores.remove(&(id, replica)),
                        self.seen.get(&id).cloned(),
                    )
                } else {
                    (self.cores.remove(&id), self.seen.remove(&id))
                };
                work[s].push(Group {
                    id,
                    replica,
                    indices: chunks.get(&(id, replica)).cloned().unwrap_or_default(),
                    core,
                    seen: seen.unwrap_or_default(),
                });
            }
        }

        let run = tracer.open("shards", Layer::Service, root, NO_QUERY);
        let base = tracer.base();
        let graphs = &self.graphs;
        let keep_built = self.keep_built.saturating_sub(self.built.len());
        let outputs: Vec<WorkerOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .into_iter()
                .enumerate()
                .map(|(s, groups)| {
                    scope.spawn(move || {
                        run_shard(
                            base,
                            s as u8 + 1,
                            groups,
                            graphs,
                            queries,
                            qid_base,
                            keep_built,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a traced shard thread panicked"))
                .collect()
        });
        tracer.close(run);

        let bank = tracer.open("bank", Layer::Service, root, NO_QUERY);
        let mut responses: Vec<Option<QueryResponse>> = vec![None; queries.len()];
        let mut records = vec![QueryRecord::default(); queries.len()];
        let mut busy_ns = Vec::new();
        let mut banked: BTreeMap<GraphId, BTreeMap<usize, EngineCore>> = BTreeMap::new();
        let mut spans = Vec::new();
        for out in outputs {
            busy_ns.push(out.busy_ns);
            spans.push(out.spans);
            for (idx, resp, rec) in out.answers {
                responses[idx] = Some(resp);
                records[idx] = rec;
            }
            for (id, replica, core, seen) in out.cores {
                if replica == 0 {
                    self.seen.insert(id, seen);
                }
                banked.entry(id).or_default().insert(replica, core);
            }
            for b in out.built {
                if self.built.len() < self.keep_built {
                    self.built.push(b);
                }
            }
        }
        for (id, replicas) in banked {
            let mut replicas = replicas.into_values();
            if let Some(mut survivor) = replicas.next() {
                for other in replicas {
                    survivor.absorb(other);
                }
                self.cores.insert(id, survivor);
            }
        }
        tracer.close(bank);
        tracer.close(root);
        for s in spans {
            tracer.absorb(s, run);
        }
        BatchTrace {
            responses: responses
                .into_iter()
                .map(|r| r.expect("every query was placed by the log"))
                .collect(),
            records,
            busy_ns,
            exec_from,
            exec_to: tracer.spans[root as usize].end,
        }
    }

    /// Replays stages 3, 4 and the wave plan of a build the traced run
    /// saw, through their public functions, the way
    /// `rmo_core::build_artifacts` sequences them for the default
    /// (deterministic) engine profile. Returns `[division, shortcut,
    /// wave plan]` nanoseconds.
    pub fn stage_replay(&self, built: &Built) -> [u64; 3] {
        let g = self.graphs[&built.graph];
        let engine = PaEngine::from_core(g, self.cores[&built.graph].fork());
        let tree = engine.tree();
        let parts =
            Partition::new(g, built.assignment.clone()).expect("a built partition is valid");
        let inst = PaInstance::from_partition(g, parts.clone(), vec![0; g.n()], Aggregate::Min)
            .expect("fleet graphs are connected");
        let leaders: Vec<NodeId> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
        let t0 = Instant::now();
        let division = deterministic_division(g, &parts, tree.depth().max(1)).division;
        let t1 = Instant::now();
        let terminals: Vec<Vec<NodeId>> =
            parts.part_ids().map(|p| division.reps_of_part(p)).collect();
        let mut budget = 1usize;
        let shortcut = loop {
            let res = construct_deterministic(
                g,
                tree,
                &parts,
                &terminals,
                DetParams::new(budget, budget, parts.num_parts()),
            );
            let setup = PaSetup {
                tree,
                shortcut: &res.shortcut,
                division: &division,
                leaders: &leaders,
                block_budget: (3 * budget).max(1),
            };
            black_box(verify_block_parameter(
                &inst,
                &setup,
                Variant::Deterministic,
            ));
            if res.unsatisfied.is_empty() || budget * 2 > g.n() {
                break res.shortcut;
            }
            budget *= 2;
        };
        let t2 = Instant::now();
        black_box(WavePlan::build(g, tree, &shortcut, &division, &parts));
        let t3 = Instant::now();
        [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_nanos() as u64)
    }
}

struct Group {
    id: GraphId,
    replica: usize,
    indices: Vec<usize>,
    core: Option<EngineCore>,
    seen: BTreeSet<u64>,
}

struct WorkerOut {
    spans: Vec<crate::trace::Span>,
    answers: Vec<(usize, QueryResponse, QueryRecord)>,
    cores: Vec<(GraphId, usize, EngineCore, BTreeSet<u64>)>,
    built: Vec<Built>,
    busy_ns: u64,
}

/// Each graph's batch indices in the cluster's group order (affinity
/// classes in first-appearance order, submission order inside a class),
/// cut into contiguous replica chunks for split graphs.
fn group_chunks(
    queries: &[(GraphId, Query)],
    split: &BTreeMap<GraphId, usize>,
) -> BTreeMap<(GraphId, usize), Vec<usize>> {
    let mut by_graph: BTreeMap<GraphId, Vec<usize>> = BTreeMap::new();
    for (idx, (id, _)) in queries.iter().enumerate() {
        by_graph.entry(*id).or_default().push(idx);
    }
    let mut out = BTreeMap::new();
    for (id, mut indices) in by_graph {
        let mut rank: BTreeMap<u64, usize> = BTreeMap::new();
        let mut class: BTreeMap<usize, usize> = BTreeMap::new();
        for &idx in &indices {
            let next = rank.len();
            class.insert(idx, *rank.entry(queries[idx].1.affinity()).or_insert(next));
        }
        indices.sort_by_key(|idx| class[idx]);
        let k = split.get(&id).copied().unwrap_or(1);
        let len = indices.len();
        for r in 0..k {
            out.insert((id, r), indices[r * len / k..(r + 1) * len / k].to_vec());
        }
    }
    out
}

/// The partition a query hands the engine, unless `seen` already
/// holds it. The key is a hash of the query's own input, so the check
/// costs no partition build; a subgraph query's partition is its
/// components (of the complement, for the `Cut` check).
fn unseen_partition(g: &Graph, q: &Query, seen: &mut BTreeSet<u64>) -> Option<Vec<usize>> {
    let (tag, words): (u64, &[usize]) = match q {
        Query::Pa { assignment, .. } => (2, assignment),
        Query::Components { h_edges } => (0, h_edges),
        Query::Verify { check, h_edges } if *check != VerifyCheck::TwoEdgeConnected => {
            (u64::from(*check == VerifyCheck::Cut), h_edges)
        }
        _ => return None,
    };
    if !seen.insert(word_fingerprint(
        std::iter::once(tag).chain(words.iter().map(|&w| w as u64)),
    )) {
        return None;
    }
    Some(match q {
        Query::Pa { assignment, .. } => assignment.clone(),
        _ if tag == 1 => {
            let h: BTreeSet<EdgeId> = words.iter().copied().collect();
            component_partition(
                g,
                &(0..g.m()).filter(|e| !h.contains(e)).collect::<Vec<_>>(),
            )
        }
        _ => component_partition(g, words),
    })
}

fn run_shard(
    base: Instant,
    thread: u8,
    groups: Vec<Group>,
    graphs: &BTreeMap<GraphId, &Graph>,
    queries: &[(GraphId, Query)],
    qid_base: u64,
    keep_built: usize,
) -> WorkerOut {
    let mut tr = Tracer::new(base, thread);
    let shard = tr.open("shard", Layer::Service, crate::trace::NO_PARENT, NO_QUERY);
    let mut answers = Vec::new();
    let mut cores = Vec::new();
    let mut built = Vec::new();
    for mut group in groups {
        let gs = tr.open("group", Layer::Service, shard, NO_QUERY);
        let graph = graphs[&group.id];
        let mut engine = match group.core.take() {
            Some(core) => PaEngine::from_core(graph, core),
            None => PaEngine::new(graph, EngineConfig::new()),
        };
        for &idx in &group.indices {
            let query = &queries[idx].1;
            let qid = qid_base + idx as u64;
            let mut rec = QueryRecord {
                kind: kind_of(query),
                ..QueryRecord::default()
            };
            let t0 = tr.now();
            // Prewarm through `pipeline_for` the first time this graph
            // sees a query's partition, so a build is timed on its own;
            // later queries on it go straight to the solve or the app,
            // as in the cluster.
            let parts = unseen_partition(graph, query, &mut group.seen)
                .and_then(|a| Partition::new(graph, a).ok());
            let mut t1 = t0;
            if let Some(parts) = &parts {
                let misses = engine.stats().misses;
                let setup = engine
                    .pipeline_for(parts)
                    .map(|a| a.setup_cost)
                    .ok()
                    .unwrap_or_default();
                t1 = tr.now();
                if engine.stats().misses > misses {
                    rec.build_ns = Some(t1 - t0);
                    rec.setup_rounds = setup.rounds as u64;
                    rec.setup_messages = setup.messages;
                    tr.record("pipeline_for", Layer::Pipeline, t0, t1, gs, qid);
                    if built.len() < keep_built {
                        built.push(Built {
                            graph: group.id,
                            assignment: parts.assignment().to_vec(),
                        });
                    }
                } else {
                    tr.record("pipeline_for", Layer::Engine, t0, t1, gs, qid);
                }
            }
            let misses = engine.stats().misses;
            let resp = match query {
                Query::Pa {
                    assignment,
                    values,
                    agg,
                } => {
                    let r = match &parts {
                        Some(parts) => engine.solve(parts, values, *agg),
                        None => Partition::new(graph, assignment.clone())
                            .map_err(PaError::Partition)
                            .and_then(|parts| engine.solve(&parts, values, *agg)),
                    };
                    let t2 = tr.now();
                    if engine.stats().misses > misses {
                        // A seen partition the cache had evicted: the
                        // solve rebuilt it, so the span is miss-path time.
                        rec.build_ns = Some(t2 - t1);
                        tr.record("solve", Layer::Pipeline, t1, t2, gs, qid);
                    } else {
                        rec.solve_ns = Some(t2 - t1);
                        tr.record("solve", Layer::Solve, t1, t2, gs, qid);
                    }
                    match r {
                        Ok(r) => QueryResponse::Pa(r),
                        Err(e) => QueryResponse::Failed(e.into()),
                    }
                }
                _ => {
                    let r = run_query(&mut engine, query);
                    let t2 = tr.now();
                    tr.record("run_query", Layer::Apps, t1, t2, gs, qid);
                    rec.missed_inside_app = engine.stats().misses > misses;
                    r
                }
            };
            let cost = resp.cost();
            rec.units = cost.rounds as u64 + cost.messages;
            if rec.solve_ns.is_some() {
                // A first solve after a build is charged the setup too.
                rec.warm_rounds = (cost.rounds as u64).saturating_sub(rec.setup_rounds);
                rec.warm_messages = cost.messages.saturating_sub(rec.setup_messages);
            }
            rec.wall_ns = tr.now() - t0;
            answers.push((idx, resp, rec));
        }
        cores.push((group.id, group.replica, engine.into_core(), group.seen));
        tr.close(gs);
    }
    tr.close(shard);
    let busy_ns = tr.spans[shard as usize].end - tr.spans[shard as usize].start;
    WorkerOut {
        spans: tr.spans,
        answers,
        cores,
        built,
        busy_ns,
    }
}
