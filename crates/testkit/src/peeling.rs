//! The pre-engine Parnas–Ron peeling loop, frozen as a differential baseline.

use graph::{Edge, Graph, GraphRef, VertexId};

/// What [`peel_with_thresholds_reference`] returns: the same three fields as
/// `vertexcover::PeelingOutcome`, so tests compare them field by field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferencePeeling {
    /// Vertices peeled in each round, ascending within a round.
    pub peeled_per_round: Vec<Vec<VertexId>>,
    /// The non-zero thresholds actually used, one per round.
    pub thresholds: Vec<usize>,
    /// The residual graph after the last round, in input edge order.
    pub residual: Graph,
}

/// The pre-engine peeling implementation: one edge-buffer copy up front,
/// then every round allocates a fresh degree array and rescans + `retain`s
/// the whole residual buffer — `O(m · rounds + n · rounds)`. In round `j`
/// every vertex whose residual degree is at least `thresholds[j]` is peeled;
/// zero thresholds are skipped. `vertexcover::peel_with_thresholds` must
/// return the same rounds and residual.
pub fn peel_with_thresholds_reference<G: GraphRef + ?Sized>(
    g: &G,
    thresholds: &[usize],
) -> ReferencePeeling {
    let n = g.n();
    let mut edges: Vec<Edge> = g.edges().to_vec();
    let mut peeled_per_round = Vec::with_capacity(thresholds.len());
    let mut used_thresholds = Vec::with_capacity(thresholds.len());
    let mut peeled_now = vec![false; n];

    for &t in thresholds {
        if t == 0 {
            continue;
        }
        let mut degrees = vec![0usize; n];
        for e in &edges {
            degrees[e.u as usize] += 1;
            degrees[e.v as usize] += 1;
        }
        let peeled: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| degrees[v as usize] >= t)
            .collect();
        for &v in &peeled {
            peeled_now[v as usize] = true;
        }
        edges.retain(|e| !peeled_now[e.u as usize] && !peeled_now[e.v as usize]);
        for &v in &peeled {
            peeled_now[v as usize] = false;
        }
        peeled_per_round.push(peeled);
        used_thresholds.push(t);
    }

    ReferencePeeling {
        peeled_per_round,
        thresholds: used_thresholds,
        residual: Graph::from_edges_unchecked(n, edges),
    }
}
