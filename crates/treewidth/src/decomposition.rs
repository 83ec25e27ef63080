//! Tree decompositions (paper §5).
//!
//! A tree decomposition of a structure `A` is a labeled tree such that
//! (1) every node is labeled by a nonempty subset of the universe,
//! (2) for every tuple of every relation there is a node whose label
//! contains the tuple's elements, and (3) for every element, the nodes
//! whose labels include it form a subtree. The *width* is the maximum
//! label cardinality minus one. Lemma 5.1 shows this agrees with the
//! treewidth of the Gaifman graph; we validate against both views.

use cqcs_structures::{gaifman_graph, BitSet, Structure, UndirectedGraph};

/// A tree decomposition: bags over `0..universe` plus tree edges.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// The bags (labels). `bags[i]` is the label of tree node `i`.
    pub bags: Vec<BitSet>,
    /// Tree edges between bag indices.
    pub edges: Vec<(usize, usize)>,
}

/// Errors from tree-decomposition validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompositionError {
    /// The edge set does not form a tree over the bags.
    NotATree,
    /// Some tuple's elements are covered by no single bag.
    TupleNotCovered {
        relation: String,
        tuple_index: usize,
    },
    /// Some element's bags do not form a connected subtree.
    ElementNotConnected { element: usize },
    /// Some element appears in no bag.
    ElementMissing { element: usize },
    /// A bag names an element outside the structure's universe.
    ElementOutOfRange { bag: usize, element: usize },
}

impl std::fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompositionError::NotATree => write!(f, "bag edges do not form a tree"),
            DecompositionError::TupleNotCovered {
                relation,
                tuple_index,
            } => {
                write!(
                    f,
                    "tuple {tuple_index} of `{relation}` is covered by no bag"
                )
            }
            DecompositionError::ElementNotConnected { element } => {
                write!(f, "bags containing element {element} are not connected")
            }
            DecompositionError::ElementMissing { element } => {
                write!(f, "element {element} appears in no bag")
            }
            DecompositionError::ElementOutOfRange { bag, element } => {
                write!(f, "bag {bag} names element {element}, outside the universe")
            }
        }
    }
}

impl std::error::Error for DecompositionError {}

impl TreeDecomposition {
    /// The width: maximum bag size minus one (−1 ⇒ 0 for the empty
    /// decomposition).
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(BitSet::len)
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// Whether the decomposition has no nodes.
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// The trivial decomposition: one bag holding the whole universe.
    pub fn trivial(universe: usize) -> Self {
        TreeDecomposition {
            bags: vec![BitSet::full(universe)],
            edges: vec![],
        }
    }

    /// Adjacency lists of the bag tree.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.bags.len()];
        for &(u, v) in &self.edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        adj
    }

    /// Checks the tree shape plus conditions (1)–(3) against a
    /// structure.
    pub fn validate(&self, s: &Structure) -> Result<(), DecompositionError> {
        self.validate_shape(s.universe())?;
        for r in s.vocabulary().iter() {
            for (ti, tuple) in s.relation(r).iter().enumerate() {
                let covered = self
                    .bags
                    .iter()
                    .any(|bag| tuple.iter().all(|e| bag.contains(e.index())));
                if !covered {
                    return Err(DecompositionError::TupleNotCovered {
                        relation: s.vocabulary().name(r).to_owned(),
                        tuple_index: ti,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks the tree shape plus conditions against a graph (edges as
    /// 2-element tuples).
    pub fn validate_graph(&self, g: &UndirectedGraph) -> Result<(), DecompositionError> {
        self.validate_shape(g.len())?;
        for (u, v) in g.edges() {
            let covered = self
                .bags
                .iter()
                .any(|bag| bag.contains(u) && bag.contains(v));
            if !covered {
                return Err(DecompositionError::TupleNotCovered {
                    relation: "E".to_owned(),
                    tuple_index: u * g.len() + v,
                });
            }
        }
        Ok(())
    }

    /// Tree shape, element range, element coverage, and
    /// subtree-connectedness, in one pass over the bags and edges.
    ///
    /// Errors in precedence order: the edges do not form a tree; the
    /// first bag naming an element outside `0..universe`; the first
    /// element (ascending) that is missing or whose holders are split.
    /// Inside a tree the bags holding an element induce a forest, whose
    /// component count is `holders − edges between holders`, so one
    /// counter per element decides both element conditions: 0 means
    /// missing, 1 connected, more split.
    pub(crate) fn validate_shape(&self, universe: usize) -> Result<(), DecompositionError> {
        let n = self.bags.len();
        if n == 0 {
            return if universe == 0 {
                Ok(())
            } else {
                Err(DecompositionError::ElementMissing { element: 0 })
            };
        }
        if self.edges.len() != n - 1 {
            return Err(DecompositionError::NotATree);
        }
        // With n − 1 edges, a tree ⟺ no edge closes a cycle.
        let mut root: Vec<usize> = (0..n).collect();
        let find = |root: &mut [usize], mut x: usize| {
            while root[x] != x {
                root[x] = root[root[x]];
                x = root[x];
            }
            x
        };
        for &(u, v) in &self.edges {
            if u >= n || v >= n {
                return Err(DecompositionError::NotATree);
            }
            let (ru, rv) = (find(&mut root, u), find(&mut root, v));
            if ru == rv {
                return Err(DecompositionError::NotATree);
            }
            root[ru] = rv;
        }
        let mut components = vec![0u32; universe];
        for (i, bag) in self.bags.iter().enumerate() {
            for e in bag.iter() {
                if e >= universe {
                    return Err(DecompositionError::ElementOutOfRange { bag: i, element: e });
                }
                components[e] += 1;
            }
        }
        for &(u, v) in &self.edges {
            let (bu, bv) = (self.bags[u].words(), self.bags[v].words());
            for (w, (x, y)) in bu.iter().zip(bv).enumerate() {
                let mut both = x & y;
                while both != 0 {
                    components[w * 64 + both.trailing_zeros() as usize] -= 1;
                    both &= both - 1;
                }
            }
        }
        match components.iter().position(|&c| c != 1) {
            None => Ok(()),
            Some(element) if components[element] == 0 => {
                Err(DecompositionError::ElementMissing { element })
            }
            Some(element) => Err(DecompositionError::ElementNotConnected { element }),
        }
    }

    /// Lemma 5.1, used as a sanity check: a decomposition of a structure
    /// is also one of its Gaifman graph.
    pub fn validate_via_gaifman(&self, s: &Structure) -> Result<(), DecompositionError> {
        self.validate_graph(&gaifman_graph(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcs_structures::generators;

    fn bag(universe: usize, elems: &[usize]) -> BitSet {
        let mut b = BitSet::new(universe);
        for &e in elems {
            b.insert(e);
        }
        b
    }

    #[test]
    fn path_decomposition_valid() {
        // P4: bags {0,1},{1,2},{2,3} in a path.
        let p = generators::directed_path(4);
        let td = TreeDecomposition {
            bags: vec![bag(4, &[0, 1]), bag(4, &[1, 2]), bag(4, &[2, 3])],
            edges: vec![(0, 1), (1, 2)],
        };
        td.validate(&p).unwrap();
        td.validate_via_gaifman(&p).unwrap();
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn trivial_decomposition_always_valid() {
        let s = generators::complete_graph(4);
        let td = TreeDecomposition::trivial(4);
        td.validate(&s).unwrap();
        assert_eq!(td.width(), 3);
    }

    #[test]
    fn uncovered_tuple_detected() {
        let p = generators::directed_path(3);
        let td = TreeDecomposition {
            bags: vec![bag(3, &[0, 1]), bag(3, &[2])],
            edges: vec![(0, 1)],
        };
        assert!(matches!(
            td.validate(&p),
            Err(DecompositionError::TupleNotCovered { .. })
        ));
    }

    #[test]
    fn disconnected_element_detected() {
        let p = generators::directed_path(4);
        // Element 1 appears in bags 0 and 2, which are not adjacent.
        let td = TreeDecomposition {
            bags: vec![bag(4, &[0, 1]), bag(4, &[2, 3]), bag(4, &[1, 2])],
            edges: vec![(0, 1), (1, 2)],
        };
        assert!(matches!(
            td.validate(&p),
            Err(DecompositionError::ElementNotConnected { element: 1 })
        ));
    }

    #[test]
    fn missing_element_detected() {
        let p = generators::directed_path(2);
        let td = TreeDecomposition {
            bags: vec![bag(2, &[0])],
            edges: vec![],
        };
        assert!(matches!(
            td.validate(&p),
            Err(DecompositionError::TupleNotCovered { .. })
                | Err(DecompositionError::ElementMissing { .. })
        ));
    }

    #[test]
    fn non_tree_detected() {
        let p = generators::directed_path(3);
        let td = TreeDecomposition {
            bags: vec![bag(3, &[0, 1]), bag(3, &[1, 2])],
            edges: vec![(0, 1), (1, 0)],
        };
        assert!(matches!(td.validate(&p), Err(DecompositionError::NotATree)));
        let forest = TreeDecomposition {
            bags: vec![bag(3, &[0, 1]), bag(3, &[1, 2]), bag(3, &[1])],
            edges: vec![(0, 1)],
        };
        assert!(matches!(
            forest.validate(&p),
            Err(DecompositionError::NotATree)
        ));
    }

    #[test]
    fn wide_tuple_needs_full_bag() {
        use cqcs_structures::{StructureBuilder, Vocabulary};
        let voc = Vocabulary::from_symbols([("R", 3)]).unwrap().into_shared();
        let mut b = StructureBuilder::new(voc, 3);
        b.add_fact("R", &[0, 1, 2]).unwrap();
        let s = b.finish();
        let td = TreeDecomposition {
            bags: vec![bag(3, &[0, 1]), bag(3, &[1, 2])],
            edges: vec![(0, 1)],
        };
        assert!(td.validate(&s).is_err());
        TreeDecomposition::trivial(3).validate(&s).unwrap();
    }

    #[test]
    fn empty_structure_empty_decomposition() {
        use cqcs_structures::StructureBuilder;
        let voc = generators::digraph_vocabulary();
        let s = StructureBuilder::new(voc, 0).finish();
        let td = TreeDecomposition {
            bags: vec![],
            edges: vec![],
        };
        td.validate(&s).unwrap();
    }
}
