//! Degree statistics and summary measures used by the experiments.

use crate::graph::Graph;
use serde::{Deserialize, Serialize};

/// Summary statistics of a graph, reported alongside every experiment so the
/// tables in `EXPERIMENTS.md` are self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree (`2m / n`), 0 for an empty vertex set.
    pub avg_degree: f64,
    /// Number of isolated vertices.
    pub isolated: usize,
}

impl GraphStats {
    /// Computes the statistics of `g`.
    pub fn of(g: &Graph) -> Self {
        let degrees = g.degrees();
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let isolated = degrees.iter().filter(|&&d| d == 0).count();
        let avg_degree = if g.n() == 0 {
            0.0
        } else {
            2.0 * g.m() as f64 / g.n() as f64
        };
        GraphStats {
            n: g.n(),
            m: g.m(),
            max_degree,
            avg_degree,
            isolated,
        }
    }
}

/// Returns the degree histogram of `g`: `hist[d]` = number of vertices with
/// degree exactly `d`.
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let degrees = g.degrees();
    let max = degrees.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for d in degrees {
        hist[d] += 1;
    }
    hist
}

/// Number of connected components (isolated vertices each count as one).
pub fn connected_components(g: &Graph) -> usize {
    let adj = g.adjacency();
    let mut visited = vec![false; g.n()];
    let mut components = 0;
    let mut stack = Vec::new();
    for start in 0..g.n() {
        if visited[start] {
            continue;
        }
        components += 1;
        visited[start] = true;
        stack.push(start as u32);
        while let Some(v) = stack.pop() {
            for &w in adj.neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_path() {
        let g = Graph::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.n, 4);
        assert_eq!(s.m, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated, 0);
        assert!((s.avg_degree - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let s = GraphStats::of(&Graph::empty(0));
        assert_eq!(s.n, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn histogram_counts() {
        let g = Graph::from_pairs(5, vec![(0, 1), (0, 2), (0, 3)]).unwrap();
        let hist = degree_histogram(&g);
        assert_eq!(hist, vec![1, 3, 0, 1]); // one isolated, three leaves, one hub of degree 3
    }

    #[test]
    fn components_counted_correctly() {
        let g = Graph::from_pairs(6, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(connected_components(&g), 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(connected_components(&Graph::empty(4)), 4);
    }
}
