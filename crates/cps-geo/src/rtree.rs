//! An STR bulk-loaded R-tree.
//!
//! The related-work section of the paper contrasts the atypical-cluster
//! model with R-tree based spatial OLAP (Papadias et al.). This tree packs
//! its nodes Sort-Tile-Recursive and answers box/radius queries over
//! arbitrary payloads.

use crate::{BoundingBox, Point};

const NODE_CAPACITY: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Indices into the item table.
        entries: Vec<u32>,
        bbox: BoundingBox,
    },
    Inner {
        children: Vec<Node>,
        bbox: BoundingBox,
    },
}

impl Node {
    fn bbox(&self) -> &BoundingBox {
        match self {
            Node::Leaf { bbox, .. } | Node::Inner { bbox, .. } => bbox,
        }
    }
}

/// Immutable R-tree over items with a point or box footprint.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    items: Vec<(BoundingBox, T)>,
    root: Option<Node>,
}

impl<T> RTree<T> {
    /// Bulk-loads the tree with Sort-Tile-Recursive packing.
    pub fn bulk_load(items: Vec<(BoundingBox, T)>) -> Self {
        if items.is_empty() {
            return Self { items, root: None };
        }
        let mut idx: Vec<u32> = (0..items.len() as u32).collect();
        let root = Self::pack_leaves(&items, &mut idx);
        Self {
            items,
            root: Some(root),
        }
    }

    /// Convenience constructor for point payloads.
    pub fn from_points(points: Vec<(Point, T)>) -> Self {
        Self::bulk_load(
            points
                .into_iter()
                .map(|(p, t)| (BoundingBox::of_point(p), t))
                .collect(),
        )
    }

    fn pack_leaves(items: &[(BoundingBox, T)], idx: &mut [u32]) -> Node {
        // STR: sort by x (lon centre), slice into vertical runs, sort each by
        // y (lat centre), then chop into capacity-sized leaves.
        let n = idx.len();
        let n_leaves = n.div_ceil(NODE_CAPACITY);
        let n_strips = (n_leaves as f64).sqrt().ceil() as usize;
        let strip_len = n.div_ceil(n_strips);

        idx.sort_by(|&a, &b| {
            let ca = items[a as usize].0.center().lon;
            let cb = items[b as usize].0.center().lon;
            ca.partial_cmp(&cb).unwrap()
        });

        let mut leaves: Vec<Node> = Vec::with_capacity(n_leaves);
        for strip in idx.chunks_mut(strip_len.max(1)) {
            strip.sort_by(|&a, &b| {
                let ca = items[a as usize].0.center().lat;
                let cb = items[b as usize].0.center().lat;
                ca.partial_cmp(&cb).unwrap()
            });
            for chunk in strip.chunks(NODE_CAPACITY) {
                let bbox = chunk
                    .iter()
                    .fold(BoundingBox::EMPTY, |b, &i| b.union(&items[i as usize].0));
                leaves.push(Node::Leaf {
                    entries: chunk.to_vec(),
                    bbox,
                });
            }
        }
        Self::pack_upward(leaves)
    }

    fn pack_upward(mut nodes: Vec<Node>) -> Node {
        while nodes.len() > 1 {
            let mut next = Vec::with_capacity(nodes.len().div_ceil(NODE_CAPACITY));
            // Nodes are already in STR order; group consecutively.
            let mut iter = nodes.into_iter().peekable();
            while iter.peek().is_some() {
                let children: Vec<Node> = iter.by_ref().take(NODE_CAPACITY).collect();
                let bbox = children
                    .iter()
                    .fold(BoundingBox::EMPTY, |b, c| b.union(c.bbox()));
                next.push(Node::Inner { children, bbox });
            }
            nodes = next;
        }
        nodes.into_iter().next().expect("at least one node")
    }

    /// Number of items in the tree.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All items whose box intersects `query`, in arbitrary order.
    pub fn query_box<'a>(&'a self, query: &BoundingBox) -> Vec<&'a T> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            self.query_node(root, query, &mut out);
        }
        out
    }

    fn query_node<'a>(&'a self, node: &'a Node, query: &BoundingBox, out: &mut Vec<&'a T>) {
        match node {
            Node::Leaf { entries, bbox } => {
                if bbox.intersects(query) {
                    for &i in entries {
                        let (b, t) = &self.items[i as usize];
                        if b.intersects(query) {
                            out.push(t);
                        }
                    }
                }
            }
            Node::Inner { children, bbox } => {
                if bbox.intersects(query) {
                    for c in children {
                        self.query_node(c, query, out);
                    }
                }
            }
        }
    }

    /// All items within `radius_miles` of `p` (item footprint centre used
    /// for the distance test).
    pub fn query_radius(&self, p: Point, radius_miles: f64) -> Vec<&T> {
        let probe = BoundingBox::of_point(p).inflated_miles(radius_miles * 1.05);
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            self.query_radius_node(root, &probe, p, radius_miles, &mut out);
        }
        out
    }

    fn query_radius_node<'a>(
        &'a self,
        node: &'a Node,
        probe: &BoundingBox,
        p: Point,
        radius_miles: f64,
        out: &mut Vec<&'a T>,
    ) {
        match node {
            Node::Leaf { entries, bbox } => {
                if bbox.intersects(probe) {
                    for &i in entries {
                        let (b, t) = &self.items[i as usize];
                        if b.center().fast_miles(p) <= radius_miles {
                            out.push(t);
                        }
                    }
                }
            }
            Node::Inner { children, bbox } => {
                if bbox.intersects(probe) {
                    for c in children {
                        self.query_radius_node(c, probe, p, radius_miles, out);
                    }
                }
            }
        }
    }

    /// Depth of the tree (0 for empty).
    pub fn depth(&self) -> usize {
        fn d(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Inner { children, .. } => 1 + children.iter().map(d).max().unwrap_or(0),
            }
        }
        self.root.as_ref().map_or(0, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::LOS_ANGELES;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<(Point, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let p = LOS_ANGELES
                    .offset_miles(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0));
                (p, i)
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.depth(), 0);
        assert!(t
            .query_box(&BoundingBox::new(-90.0, -180.0, 90.0, 180.0))
            .is_empty());
    }

    #[test]
    fn box_query_matches_brute_force() {
        let pts = random_points(500, 7);
        let tree = RTree::from_points(pts.clone());
        let q = BoundingBox::of_point(LOS_ANGELES).inflated_miles(8.0);
        let mut got: Vec<usize> = tree.query_box(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .filter(|(p, _)| q.contains(*p))
            .map(|&(_, i)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let pts = random_points(400, 11);
        let tree = RTree::from_points(pts.clone());
        for &r in &[1.0, 5.0, 12.0] {
            let mut got: Vec<usize> = tree
                .query_radius(LOS_ANGELES, r)
                .into_iter()
                .copied()
                .collect();
            got.sort_unstable();
            let mut want: Vec<usize> = pts
                .iter()
                .filter(|(p, _)| p.fast_miles(LOS_ANGELES) <= r)
                .map(|&(_, i)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "radius {r}");
        }
    }

    #[test]
    fn tree_is_balanced_and_shallow() {
        let tree = RTree::from_points(random_points(2000, 3));
        // 2000 items at fanout 16: depth ⌈log16(125)⌉ + 1 = 3.
        assert!(tree.depth() <= 4, "depth {}", tree.depth());
        assert_eq!(tree.len(), 2000);
    }

    proptest! {
        #[test]
        fn prop_query_complete(seed in 0u64..50, dn in -15.0f64..15.0, de in -15.0f64..15.0, r in 0.5f64..10.0) {
            let pts = random_points(200, seed);
            let tree = RTree::from_points(pts.clone());
            let center = LOS_ANGELES.offset_miles(dn, de);
            let mut got: Vec<usize> = tree.query_radius(center, r).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = pts.iter()
                .filter(|(p, _)| p.fast_miles(center) <= r)
                .map(|&(_, i)| i)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
