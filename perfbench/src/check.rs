//! Independent answer checks. None of them reads the program's own
//! oracle (`PaInstance::reference_aggregate`): PA folds, component
//! labels and every verification predicate are recomputed here, and MST
//! weights come from the Kruskal reference in `rmo_graph::reference`.

use std::cell::OnceCell;

use rmo_apps::dispatch::{Query, QueryResponse, VerifyCheck};
use rmo_core::Aggregate;
use rmo_graph::{reference, EdgeId, Graph};

use crate::gen::{component_partition, hops, Dsu};

/// One fleet graph with its lazily computed exact answers (MST weight,
/// eccentricities), shared by every check on that graph.
pub struct Oracle<'g> {
    pub graph: &'g Graph,
    mst_weight: OnceCell<u64>,
    eccentricities: OnceCell<Vec<usize>>,
}

impl<'g> Oracle<'g> {
    pub fn new(graph: &'g Graph) -> Oracle<'g> {
        Oracle {
            graph,
            mst_weight: OnceCell::new(),
            eccentricities: OnceCell::new(),
        }
    }

    fn mst_weight(&self) -> u64 {
        *self
            .mst_weight
            .get_or_init(|| reference::kruskal(self.graph).total_weight)
    }

    fn total_weight(&self) -> u64 {
        self.graph.edges().map(|(_, _, _, w)| w).sum()
    }

    fn eccentricities(&self) -> &[usize] {
        self.eccentricities.get_or_init(|| {
            (0..self.graph.n())
                .map(|v| hops(self.graph, &[v]).into_iter().max().unwrap_or(0))
                .collect()
        })
    }
}

/// Checks one response against its query; `Err` names what is wrong.
pub fn check(oracle: &Oracle<'_>, query: &Query, resp: &QueryResponse) -> Result<(), String> {
    let g = oracle.graph;
    match (query, resp) {
        (_, QueryResponse::Failed(reason)) => Err(format!("failed: {reason}")),
        (
            Query::Pa {
                assignment,
                values,
                agg,
            },
            QueryResponse::Pa(r),
        ) => {
            let parts = assignment.iter().max().map_or(0, |m| m + 1);
            let mut folds: Vec<Option<u64>> = vec![None; parts];
            for (v, &p) in assignment.iter().enumerate() {
                let x = values[v];
                folds[p] = Some(match (folds[p], agg) {
                    (None, _) => x,
                    (Some(a), Aggregate::Min) => a.min(x),
                    (Some(a), Aggregate::Max) => a.max(x),
                    (Some(a), Aggregate::Sum) => a.wrapping_add(x),
                    (Some(a), other) => {
                        return Err(format!("unexpected aggregate {other:?} ({a})"))
                    }
                });
            }
            let folds: Vec<u64> = folds.into_iter().map(|f| f.unwrap_or(0)).collect();
            if r.node_values.len() != g.n() {
                return Err("node_values has the wrong length".into());
            }
            for (v, &p) in assignment.iter().enumerate() {
                if r.node_values[v] != folds[p] {
                    return Err(format!(
                        "node {v}: got {}, part fold {}",
                        r.node_values[v], folds[p]
                    ));
                }
            }
            let mut want = folds;
            let mut got = r.aggregates.clone();
            want.sort_unstable();
            got.sort_unstable();
            if want != got {
                return Err("per-part aggregates differ from the folds".into());
            }
            Ok(())
        }
        (Query::Components { h_edges }, QueryResponse::Components(r)) => {
            let want = component_partition(g, h_edges);
            // Equal up to relabeling: dense first-appearance labels of
            // the reported labels must equal ours.
            let got =
                crate::gen::dense_labels(&r.labels.iter().map(|&l| l as usize).collect::<Vec<_>>());
            let count = want.iter().max().map_or(0, |m| m + 1);
            if got != want || r.num_components != count {
                return Err("component labels differ from union-find".into());
            }
            Ok(())
        }
        (Query::Verify { check, h_edges }, QueryResponse::Verify(v)) => {
            let want = verdict(oracle, *check, h_edges);
            if v.holds != want {
                return Err(format!("{check:?}: got {}, expected {want}", v.holds));
            }
            Ok(())
        }
        (Query::Mst, QueryResponse::Mst(r)) => {
            let want = oracle.mst_weight();
            let sum: u64 = r.edges.iter().map(|&e| g.weight(e)).sum();
            if r.total_weight != want || sum != want || !spanning_tree(g, &r.edges) {
                return Err(format!(
                    "MST weight {} (edges {sum}), Kruskal {want}",
                    r.total_weight
                ));
            }
            Ok(())
        }
        (Query::Sssp { source }, QueryResponse::Sssp(r)) => {
            let exact = reference::dijkstra(g, *source);
            if r.estimates.len() != g.n() || r.estimates[*source] != 0 {
                return Err("SSSP estimates have the wrong shape".into());
            }
            // Every estimate is the length of a real path that enters
            // each low-diameter cluster once, through the cluster's tree:
            // at most the crossing edges plus two tree depths per
            // cluster, so at most twice the graph's total weight. (The
            // stretch of 60 the program's tests assert on light weights
            // is no guarantee: the fleet's 1..1000 weights exceed it.)
            let cap = 2 * oracle.total_weight();
            for (v, (&e, &x)) in r.estimates.iter().zip(&exact).enumerate() {
                if e < x || e > cap {
                    return Err(format!("node {v}: SSSP estimate {e}, exact distance {x}"));
                }
            }
            Ok(())
        }
        (Query::MinCut { .. }, QueryResponse::MinCut(r)) => {
            let inside = r.side.iter().filter(|&&s| s).count();
            let crossing: u64 = g
                .edges()
                .filter(|&(_, u, v, _)| r.side[u] != r.side[v])
                .map(|(_, _, _, w)| w)
                .sum();
            if inside == 0 || inside == g.n() || crossing != r.weight {
                return Err(format!(
                    "cut weight {} but side crosses {crossing}",
                    r.weight
                ));
            }
            Ok(())
        }
        (Query::Kdom { k }, QueryResponse::Kdom(r)) => {
            let far = hops(g, &r.set).into_iter().max().unwrap_or(usize::MAX);
            if far > *k {
                return Err(format!("a node is {far} hops from the set (k = {k})"));
            }
            // Corollary A.3's size guarantee, as the app's tests state
            // it. It is vacuous for k <= 6: the app may then return every
            // node, and does on some fleet graphs.
            if r.set.len() > 6 * g.n() / k + 1 {
                return Err(format!(
                    "k-dom set of {} nodes exceeds 6n/k (k = {k})",
                    r.set.len()
                ));
            }
            Ok(())
        }
        (Query::Eccentricity { k }, QueryResponse::Eccentricity(r)) => {
            for (v, &ecc) in oracle.eccentricities().iter().enumerate() {
                if r.estimates[v] < ecc || r.estimates[v] > ecc + k {
                    return Err(format!(
                        "node {v}: estimate {} vs eccentricity {ecc}",
                        r.estimates[v]
                    ));
                }
            }
            Ok(())
        }
        (Query::Cds { node_weights }, QueryResponse::Cds(r)) => {
            let weight: u64 = r.set.iter().map(|&v| node_weights[v]).sum();
            if weight != r.weight || !dominating(g, &r.set) || !connected_within(g, &r.set) {
                return Err("CDS is not a connected dominating set of its weight".into());
            }
            Ok(())
        }
        (q, r) => Err(format!(
            "response kind does not match query: {q:?} -> {r:?}"
        )),
    }
}

fn verdict(oracle: &Oracle<'_>, check: VerifyCheck, h: &[EdgeId]) -> bool {
    let g = oracle.graph;
    let components = |edges: &[EdgeId]| {
        component_partition(g, edges)
            .into_iter()
            .max()
            .map_or(0, |m| m + 1)
    };
    let mut distinct = h.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    match check {
        VerifyCheck::ConnectedSpanning => components(h) == 1,
        VerifyCheck::SpanningTree => components(h) == 1 && distinct.len() == g.n() - 1,
        VerifyCheck::Cut => {
            let keep: Vec<EdgeId> = (0..g.m())
                .filter(|e| distinct.binary_search(e).is_err())
                .collect();
            components(&keep) > 1
        }
        VerifyCheck::Forest => {
            let mut dsu = Dsu::new(g.n());
            distinct.iter().all(|&e| {
                let (u, v) = g.endpoints(e);
                dsu.union(u, v)
            })
        }
        VerifyCheck::Bipartite => {
            // Parity union-find: node 2v is "v colored 0", 2v+1 "colored 1".
            let mut dsu = Dsu::new(2 * g.n());
            for &e in &distinct {
                let (u, v) = g.endpoints(e);
                dsu.union(2 * u, 2 * v + 1);
                dsu.union(2 * u + 1, 2 * v);
            }
            (0..g.n()).all(|v| dsu.find(2 * v) != dsu.find(2 * v + 1))
        }
        VerifyCheck::Mst => {
            distinct.len() == g.n() - 1
                && spanning_tree(g, &distinct)
                && distinct.iter().map(|&e| g.weight(e)).sum::<u64>() == oracle.mst_weight()
        }
        VerifyCheck::TwoEdgeConnected => (0..g.m()).all(|cut| {
            let rest: Vec<EdgeId> = (0..g.m()).filter(|&e| e != cut).collect();
            components(&rest) == 1
        }),
    }
}

fn spanning_tree(g: &Graph, edges: &[EdgeId]) -> bool {
    let mut dsu = Dsu::new(g.n());
    edges.len() == g.n() - 1
        && edges.iter().all(|&e| {
            let (u, v) = g.endpoints(e);
            dsu.union(u, v)
        })
}

fn dominating(g: &Graph, set: &[usize]) -> bool {
    hops(g, set).into_iter().all(|d| d <= 1)
}

fn connected_within(g: &Graph, set: &[usize]) -> bool {
    let mut inside = vec![false; g.n()];
    for &v in set {
        inside[v] = true;
    }
    let mut dsu = Dsu::new(g.n());
    for (_, u, v, _) in g.edges() {
        if inside[u] && inside[v] {
            dsu.union(u, v);
        }
    }
    let mut roots: Vec<usize> = set.iter().map(|&v| dsu.find(v)).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len() == 1
}
