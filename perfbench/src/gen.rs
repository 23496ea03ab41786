//! Seeded input generation. Everything the program under test receives
//! — the graphs, the partitions, the subgraphs, the values, the arrival
//! ticks — is made here from the workload seed, with a private PRNG, so
//! no generator inside the program can shape its own benchmark.

use std::collections::{BTreeSet, VecDeque};

use rmo_apps::dispatch::{Query, VerifyCheck};
use rmo_apps::service::GraphId;
use rmo_core::Aggregate;
use rmo_graph::{EdgeId, Graph, NodeId};

/// SplitMix64: tiny, fast, and stable across platforms and releases.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for `(seed, tags...)`.
    pub fn derive(seed: u64, tags: &[u64]) -> Rng {
        let mut rng = Rng::new(seed);
        for &t in tags {
            rng.0 ^= t.wrapping_mul(0xd1b5_4a32_d192_ed03);
            rng.next();
        }
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One registered graph of the fleet.
pub struct FleetGraph {
    pub id: GraphId,
    pub graph: Graph,
}

type Edges = BTreeSet<(NodeId, NodeId)>;

fn pair(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

fn grid(rows: usize, cols: usize, wrap: bool) -> (usize, Edges) {
    let mut pairs = BTreeSet::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols || wrap {
                pairs.insert(pair(v, r * cols + (c + 1) % cols));
            }
            if r + 1 < rows || wrap {
                pairs.insert(pair(v, ((r + 1) % rows) * cols + c));
            }
        }
    }
    (rows * cols, pairs)
}

fn path(n: usize) -> (usize, Edges) {
    (n, (1..n).map(|v| (v - 1, v)).collect())
}

/// A random recursive tree (node `v` hangs off a uniform earlier node)
/// plus `extra` random chords: connected by construction.
fn tree_plus(n: usize, extra: usize, rng: &mut Rng) -> (usize, Edges) {
    let mut pairs: Edges = (1..n).map(|v| pair(rng.below(v), v)).collect();
    while pairs.len() < n - 1 + extra {
        let (u, v) = (rng.below(n), rng.below(n));
        if u != v {
            pairs.insert(pair(u, v));
        }
    }
    (n, pairs)
}

/// G(n, p) unioned with a random spanning path over a shuffled node
/// order, so the draw is always connected.
fn gnp(n: usize, p: f64, rng: &mut Rng) -> (usize, Edges) {
    let mut order: Vec<NodeId> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut pairs: Edges = order.windows(2).map(|w| pair(w[0], w[1])).collect();
    for u in 0..n {
        for v in u + 1..n {
            if rng.unit() < p {
                pairs.insert((u, v));
            }
        }
    }
    (n, pairs)
}

/// The six-graph fleet every workload serves. Its topologies are fixed
/// (the two random ones are drawn once, from a constant seed), so runs
/// under different seeds serve the same fleet; the seed draws the edge
/// weights. Fleet order is popularity rank for the zipf workload.
pub fn fleet(seed: u64) -> Vec<FleetGraph> {
    let mut topology = Rng::new(0x70B0);
    let mut weights = Rng::derive(seed, &[0xF1EE7]);
    let shapes = vec![
        grid(12, 12, false),
        gnp(120, 0.05, &mut topology),
        grid(10, 12, true),
        tree_plus(160, 80, &mut topology),
        path(128),
        grid(8, 16, false),
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (n, pairs))| {
            let edges: Vec<(NodeId, NodeId, u64)> = pairs
                .into_iter()
                .map(|(u, v)| (u, v, 1 + weights.below(1000) as u64))
                .collect();
            FleetGraph {
                id: GraphId(100 + i as u64),
                graph: Graph::from_edges(n, &edges)
                    .expect("generated edges are simple and in range"),
            }
        })
        .collect()
}

/// A random connected partition into about `target` parts: seeds grow
/// by randomized multi-source BFS, so every part is connected. Part ids
/// are dense, in order of first appearance.
pub fn partition(g: &Graph, target: usize, rng: &mut Rng) -> Vec<usize> {
    let n = g.n();
    let mut owner = vec![usize::MAX; n];
    let mut frontier: Vec<NodeId> = Vec::new();
    for p in 0..target.clamp(1, n) {
        let v = rng.below(n);
        if owner[v] == usize::MAX {
            owner[v] = p;
            frontier.push(v);
        }
    }
    while !frontier.is_empty() {
        let u = frontier.swap_remove(rng.below(frontier.len()));
        for (v, _) in g.neighbors(u) {
            if owner[v] == usize::MAX {
                owner[v] = owner[u];
                frontier.push(v);
            }
        }
    }
    dense_labels(&owner)
}

/// Relabels arbitrary labels to dense ids in first-appearance order.
pub fn dense_labels(labels: &[usize]) -> Vec<usize> {
    let mut map = std::collections::BTreeMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len();
            *map.entry(l).or_insert(next)
        })
        .collect()
}

/// Each edge kept with probability 0.6.
pub fn subgraph(g: &Graph, rng: &mut Rng) -> Vec<EdgeId> {
    (0..g.m()).filter(|_| rng.unit() < 0.6).collect()
}

fn parts_target(n: usize) -> usize {
    (n / 8).clamp(2, 24)
}

/// Per-graph pools of cache-affine inputs. Three partitions and two
/// subgraphs keep every graph's distinct partitions (subgraph
/// components, and the complements the `Cut` check labels) within the
/// engine's eight-entry artifact cache, so pooled traffic hits.
pub struct Pool {
    partitions: Vec<Vec<usize>>,
    subgraphs: Vec<Vec<EdgeId>>,
}

pub fn pools(fleet: &[FleetGraph], seed: u64) -> Vec<Pool> {
    fleet
        .iter()
        .map(|f| {
            let mut rng = Rng::derive(seed, &[0x9001, f.id.0]);
            let g = &f.graph;
            Pool {
                partitions: (0..3)
                    .map(|_| partition(g, parts_target(g.n()), &mut rng))
                    .collect(),
                subgraphs: (0..2).map(|_| subgraph(g, &mut rng)).collect(),
            }
        })
        .collect()
}

impl Pool {
    /// One query per pooled input, so a warm-up leaves every pooled
    /// partition cached: a `Pa` per partition, and per subgraph a
    /// `Components` and a `Cut` check (which labels the complement).
    pub fn coverage(&self, g: &Graph, rng: &mut Rng) -> Vec<Query> {
        let mut out: Vec<Query> = self
            .partitions
            .iter()
            .map(|p| Query::Pa {
                assignment: p.clone(),
                values: values(g.n(), rng),
                agg: Aggregate::Min,
            })
            .collect();
        for h in &self.subgraphs {
            out.push(Query::Components { h_edges: h.clone() });
            out.push(Query::Verify {
                check: VerifyCheck::Cut,
                h_edges: h.clone(),
            });
        }
        out
    }
}

fn values(n: usize, rng: &mut Rng) -> Vec<u64> {
    (0..n).map(|_| rng.next() >> 44).collect()
}

/// A shuffled deck in which card `i` appears `counts[i]` times, dealt
/// in order and reshuffled after each pass. Dealing query kinds and
/// graphs from decks fixes the traffic mix exactly per pass, so runs
/// under different seeds differ in their inputs, not in their mix.
pub struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(counts: &[usize]) -> Deck {
        let cards = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
            .collect();
        Deck { cards, next: 0 }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// Zipf(`s`) popularity over `k` ranks as whole counts summing to
/// `total` (largest remainders round up).
pub fn zipf_counts(k: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=k).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in order.iter().take(total - counts.iter().sum::<usize>()) {
        counts[i] += 1;
    }
    counts
}

#[derive(Clone, Copy)]
enum Kind {
    Pa,
    Components,
    Verify,
    Mst,
    Sssp,
    Kdom,
    Eccentricity,
    MinCut,
    Cds,
}

/// A traffic mix: query kinds and verification checks dealt from decks.
pub struct Mix {
    kinds: Vec<Kind>,
    deck: Deck,
    checks: Vec<VerifyCheck>,
    check_deck: Deck,
}

impl Mix {
    fn new(kinds: &[(Kind, usize)], checks: &[(VerifyCheck, usize)]) -> Mix {
        Mix {
            kinds: kinds.iter().map(|k| k.0).collect(),
            deck: Deck::new(&kinds.iter().map(|k| k.1).collect::<Vec<_>>()),
            checks: checks.iter().map(|c| c.0).collect(),
            check_deck: Deck::new(&checks.iter().map(|c| c.1).collect::<Vec<_>>()),
        }
    }

    /// The proportions of the program's own PA-service traffic
    /// (`rmo_apps::service::mixed_workload`: 50 `Pa`, 15 `Components`,
    /// 13 `Verify` per 100, the checks uniform over its five subgraph
    /// predicates), copied here so the benchmark still draws its own
    /// inputs.
    const SERVICE_CHECKS: [(VerifyCheck, usize); 5] = [
        (VerifyCheck::ConnectedSpanning, 1),
        (VerifyCheck::SpanningTree, 1),
        (VerifyCheck::Cut, 1),
        (VerifyCheck::Bipartite, 1),
        (VerifyCheck::Forest, 1),
    ];

    /// The PA-service mix restricted to its `Pa`/`Components`/`Verify`
    /// share (50 : 15 : 13), per 30 queries: 19 `Pa`, 6 `Components`,
    /// 5 `Verify`.
    pub fn pa() -> Mix {
        Mix::new(
            &[(Kind::Pa, 19), (Kind::Components, 6), (Kind::Verify, 5)],
            &Mix::SERVICE_CHECKS,
        )
    }

    /// The full PA-service mix, per 100 queries, in the program's own
    /// proportions: the analytics tail (k-dom, eccentricity, MST, SSSP,
    /// min-cut, CDS) is 22 of them.
    pub fn analytics() -> Mix {
        Mix::new(
            &[
                (Kind::Pa, 50),
                (Kind::Components, 15),
                (Kind::Verify, 13),
                (Kind::Kdom, 7),
                (Kind::Eccentricity, 5),
                (Kind::Mst, 5),
                (Kind::Sssp, 3),
                (Kind::MinCut, 1),
                (Kind::Cds, 1),
            ],
            &Mix::SERVICE_CHECKS,
        )
    }

    /// The next query on `g`. With a pool, partitions and subgraphs
    /// come from it; without one, each query draws fresh ones.
    pub fn next(&mut self, g: &Graph, pool: Option<&Pool>, rng: &mut Rng) -> Query {
        let n = g.n();
        let subgraph_of = |rng: &mut Rng| match pool {
            Some(p) => p.subgraphs[rng.below(p.subgraphs.len())].clone(),
            None => subgraph(g, rng),
        };
        match self.kinds[self.deck.deal(rng)] {
            Kind::Pa => Query::Pa {
                assignment: match pool {
                    Some(p) => p.partitions[rng.below(p.partitions.len())].clone(),
                    None => partition(g, parts_target(n), rng),
                },
                values: values(n, rng),
                agg: [Aggregate::Min, Aggregate::Max, Aggregate::Sum][rng.below(3)],
            },
            Kind::Components => Query::Components {
                h_edges: subgraph_of(rng),
            },
            Kind::Verify => Query::Verify {
                check: self.checks[self.check_deck.deal(rng)],
                h_edges: subgraph_of(rng),
            },
            Kind::Mst => Query::Mst,
            Kind::Sssp => Query::Sssp {
                source: rng.below(n),
            },
            Kind::Kdom => Query::Kdom {
                k: [6, 10][rng.below(2)],
            },
            Kind::Eccentricity => Query::Eccentricity {
                k: [6, 10][rng.below(2)],
            },
            Kind::MinCut => Query::MinCut { trials: 1 },
            Kind::Cds => Query::Cds {
                node_weights: (0..n).map(|_| 1 + rng.below(13) as u64).collect(),
            },
        }
    }
}

/// Arrival ticks of a Poisson process at `rate` arrivals per
/// kilotick: exponential gaps, rounded down to whole ticks. The same
/// `rng` state at another rate gives the same gaps, rescaled.
pub fn arrival_ticks(count: usize, rate_per_ktick: f64, rng: &mut Rng) -> Vec<u64> {
    let mean_gap = 1000.0 / rate_per_ktick;
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -mean_gap * (1.0 - rng.unit()).ln();
            t as u64
        })
        .collect()
}

/// Canonical labels of the components of `h_edges`: part ids in order
/// of first appearance, which is exactly the partition the component
/// labeling app hands to the engine.
pub fn component_partition(g: &Graph, h_edges: &[EdgeId]) -> Vec<usize> {
    let mut dsu = Dsu::new(g.n());
    for &e in h_edges {
        let (u, v) = g.endpoints(e);
        dsu.union(u, v);
    }
    let roots: Vec<usize> = (0..g.n()).map(|v| dsu.find(v)).collect();
    dense_labels(&roots)
}

/// The benchmark's own union-find (the oracles never use the program's).
pub struct Dsu(Vec<usize>);

impl Dsu {
    pub fn new(n: usize) -> Dsu {
        Dsu((0..n).collect())
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra] = rb;
        true
    }
}

/// BFS hop distances from the nearest of `sources`.
pub fn hops(g: &Graph, sources: &[NodeId]) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut q = VecDeque::new();
    for &s in sources {
        if dist[s] == usize::MAX {
            dist[s] = 0;
            q.push_back(s);
        }
    }
    while let Some(u) = q.pop_front() {
        for (v, _) in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}
