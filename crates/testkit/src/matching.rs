//! Exact maximum matching size of tiny graphs.

use graph::{Edge, GraphRef};

/// Computes the exact maximum matching size of small graphs by exhaustive
/// search over edge subsets (exponential; for cross-checking the real
/// algorithms, `m <= ~20`).
pub fn brute_force_maximum_matching_size<G: GraphRef + ?Sized>(g: &G) -> usize {
    fn recurse(edges: &[Edge], used: &mut Vec<bool>, idx: usize, size: usize, best: &mut usize) {
        *best = (*best).max(size);
        if idx == edges.len() {
            return;
        }
        // Prune: even taking every remaining edge cannot beat best.
        if size + (edges.len() - idx) <= *best {
            return;
        }
        let e = edges[idx];
        // Skip edge idx.
        recurse(edges, used, idx + 1, size, best);
        // Take edge idx if possible.
        if !used[e.u as usize] && !used[e.v as usize] {
            used[e.u as usize] = true;
            used[e.v as usize] = true;
            recurse(edges, used, idx + 1, size + 1, best);
            used[e.u as usize] = false;
            used[e.v as usize] = false;
        }
    }
    let mut best = 0;
    let mut used = vec![false; g.n()];
    recurse(g.edges(), &mut used, 0, 0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Graph;

    fn path4() -> Graph {
        Graph::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn brute_force_on_small_graphs() {
        assert_eq!(brute_force_maximum_matching_size(&path4()), 2);
        let triangle = Graph::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(brute_force_maximum_matching_size(&triangle), 1);
        let two_triangles =
            Graph::from_pairs(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        assert_eq!(brute_force_maximum_matching_size(&two_triangles), 2);
        assert_eq!(brute_force_maximum_matching_size(&Graph::empty(3)), 0);
    }
}
