//! Reporting wrappers for the matching protocols.
//!
//! These helpers run a coordinator-model matching protocol and package the
//! outcome into a [`MatchingProtocolReport`] that the experiment binaries
//! print as table rows.

use crate::coordinator::CoordinatorProtocol;
use crate::error::ProtocolError;
use crate::report::MatchingProtocolReport;
use coresets::matching_coreset::{
    MatchingCoresetBuilder, MaximumMatchingCoreset, SubsampledMatchingCoreset,
};
use graph::Graph;

/// Runs a matching protocol with an arbitrary coreset builder and reports the
/// achieved approximation against `reference_matching_size` (the exact optimum
/// when known, otherwise a certified lower bound such as a planted matching).
pub fn report_matching_protocol<B: MatchingCoresetBuilder>(
    g: &Graph,
    k: usize,
    builder: &B,
    reference_matching_size: usize,
    seed: u64,
) -> Result<MatchingProtocolReport, ProtocolError> {
    let run = CoordinatorProtocol::random(k).run_matching(g, builder, seed)?;
    let matching_size = run.answer.len();
    Ok(MatchingProtocolReport {
        protocol: builder.name().to_string(),
        k,
        n: g.n(),
        m: g.m(),
        matching_size,
        reference_matching_size,
        approximation_ratio: MatchingProtocolReport::ratio(reference_matching_size, matching_size),
        communication: run.communication,
        faults: None,
    })
}

/// Runs the paper's default protocol (Theorem 1: maximum-matching coresets).
pub fn report_default_matching_protocol(
    g: &Graph,
    k: usize,
    reference_matching_size: usize,
    seed: u64,
) -> Result<MatchingProtocolReport, ProtocolError> {
    report_matching_protocol(
        g,
        k,
        &MaximumMatchingCoreset::new(),
        reference_matching_size,
        seed,
    )
}

/// Runs the Remark 5.2 protocol: maximum-matching coresets subsampled with
/// probability `1/alpha`, trading approximation for an `alpha²` reduction in
/// communication.
pub fn report_subsampled_protocol(
    g: &Graph,
    k: usize,
    alpha: f64,
    reference_matching_size: usize,
    seed: u64,
) -> Result<MatchingProtocolReport, ProtocolError> {
    let builder = SubsampledMatchingCoreset::new(alpha);
    let mut report = report_matching_protocol(g, k, &builder, reference_matching_size, seed)?;
    report.protocol = format!("subsampled(alpha={alpha})");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::bipartite::planted_matching_bipartite;
    use matching::maximum::maximum_matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn default_protocol_report_has_small_ratio() {
        let (bg, planted) = planted_matching_bipartite(400, 0.005, &mut rng(1));
        let g = bg.to_graph();
        let opt = maximum_matching(&g).len();
        assert!(opt >= planted.len());
        let report = report_default_matching_protocol(&g, 8, opt, 3).unwrap();
        assert!(report.approximation_ratio >= 1.0 - 1e-9);
        assert!(
            report.approximation_ratio <= 3.0,
            "ratio {}",
            report.approximation_ratio
        );
        assert_eq!(report.k, 8);
        assert_eq!(report.communication.message_count(), 8);
    }

    #[test]
    fn subsampled_protocol_trades_communication_for_ratio() {
        let (bg, _) = planted_matching_bipartite(600, 0.004, &mut rng(2));
        let g = bg.to_graph();
        let opt = maximum_matching(&g).len();
        let full = report_default_matching_protocol(&g, 6, opt, 5).unwrap();
        let alpha = 4.0;
        let sub = report_subsampled_protocol(&g, 6, alpha, opt, 5).unwrap();
        assert!(sub.communication.total_words() < full.communication.total_words());
        // The subsampled protocol is allowed to be worse, but not worse than
        // ~alpha times the full protocol's ratio (generous slack for noise).
        assert!(sub.approximation_ratio <= alpha * full.approximation_ratio * 2.0);
        assert!(sub.protocol.contains("alpha=4"));
    }
}
