//! Reporting wrappers for the vertex-cover protocols.

use crate::comm::{CommunicationCost, CostModel};
use crate::coordinator::CoordinatorProtocol;
use crate::error::ProtocolError;
use crate::report::VertexCoverProtocolReport;
use coresets::vc_coreset::{GroupedVcCoreset, PeelingVcCoreset, VcCoresetBuilder};
use coresets::CoresetParams;
use graph::partition::PartitionedGraph;
use graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vertexcover::VertexCover;

/// Runs a vertex-cover protocol with an arbitrary coreset builder and reports
/// the achieved cover size against `reference_cover_size` (the exact optimum
/// when known, otherwise a certified upper bound from the instance).
pub fn report_vertex_cover_protocol<B: VcCoresetBuilder>(
    g: &Graph,
    k: usize,
    builder: &B,
    reference_cover_size: usize,
    seed: u64,
) -> Result<VertexCoverProtocolReport, ProtocolError> {
    let run = CoordinatorProtocol::random(k).run_vertex_cover(g, builder, seed)?;
    let cover_size = run.answer.len();
    Ok(VertexCoverProtocolReport {
        protocol: builder.name().to_string(),
        k,
        n: g.n(),
        m: g.m(),
        feasible: run.answer.covers(g),
        cover_size,
        reference_cover_size,
        approximation_ratio: VertexCoverProtocolReport::ratio(cover_size, reference_cover_size),
        communication: run.communication,
        faults: None,
    })
}

/// Runs the paper's default protocol (Theorem 2: peeling coresets).
pub fn report_default_vertex_cover_protocol(
    g: &Graph,
    k: usize,
    reference_cover_size: usize,
    seed: u64,
) -> Result<VertexCoverProtocolReport, ProtocolError> {
    report_vertex_cover_protocol(g, k, &PeelingVcCoreset::new(), reference_cover_size, seed)
}

/// Runs the Remark 5.8 protocol: vertices are grouped into supervertices of
/// size `Θ(alpha / log n)`, the Theorem 2 coreset runs on the contracted
/// graph, and the final cover is expanded back. Communication is charged on
/// the contracted coresets, which is the point of the construction.
pub fn report_grouped_protocol(
    g: &Graph,
    k: usize,
    alpha: f64,
    reference_cover_size: usize,
    seed: u64,
) -> Result<VertexCoverProtocolReport, ProtocolError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::random(g, k, &mut rng)?;
    let params = CoresetParams::new(g.n(), k);
    let grouped = GroupedVcCoreset::for_alpha(alpha, g.n());
    let (cover_vertices, contracted_sizes) =
        grouped.run_protocol(&partition.views(), &params, seed);
    let cover = VertexCover::from_vertices(cover_vertices);

    // Contracted messages are measured in the contracted id space.
    let model = CostModel::for_n(grouped.contracted_n(g.n()));
    let mut communication = CommunicationCost::default();
    for &size in &contracted_sizes {
        // A contracted coreset of `size` items is charged as if every item
        // were an edge (2 ids) — an upper bound that keeps the accounting
        // simple and conservative.
        communication.record_message(&model, size, 0);
    }

    let cover_size = cover.len();
    Ok(VertexCoverProtocolReport {
        protocol: format!("grouped(alpha={alpha}, group={})", grouped.group_size),
        k,
        n: g.n(),
        m: g.m(),
        feasible: cover.covers(g),
        cover_size,
        reference_cover_size,
        approximation_ratio: VertexCoverProtocolReport::ratio(cover_size, reference_cover_size),
        communication,
        faults: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vertexcover::approx::two_approx_cover;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn default_protocol_is_feasible_and_reported() {
        let g = gnp(800, 0.01, &mut rng(1));
        let reference = two_approx_cover(&g).len().max(1);
        let report = report_default_vertex_cover_protocol(&g, 6, reference, 3).unwrap();
        assert!(report.feasible);
        assert!(report.cover_size > 0);
        assert!(report.approximation_ratio.is_finite());
        assert_eq!(report.communication.message_count(), 6);
    }

    #[test]
    fn grouped_protocol_reduces_communication_for_large_alpha() {
        let g = gnp(2000, 0.005, &mut rng(2));
        let reference = two_approx_cover(&g).len().max(1);
        let ungrouped = report_default_vertex_cover_protocol(&g, 8, reference, 4).unwrap();
        let grouped = report_grouped_protocol(&g, 8, 64.0, reference, 4).unwrap();
        assert!(grouped.feasible, "grouped cover must still cover the graph");
        assert!(
            grouped.communication.total_words() <= ungrouped.communication.total_words(),
            "grouping should not increase communication ({} vs {})",
            grouped.communication.total_words(),
            ungrouped.communication.total_words()
        );
    }
}
