//! The q-ary communication tree (paper §3.2.2).
//!
//! Nodes are committees of processors. Level 1 has `n` nodes (one
//! *assigned* to each processor — the node that initially receives its
//! secret-shared array); counts shrink by `q` per level up to a single
//! root committee containing every processor. Three sampler-generated
//! link families wire the tree:
//!
//! * **membership** — which processors sit in which committee;
//! * **uplinks** — which parent-committee members a child-committee member
//!   sends shares to (`sendSecretUp`) and receives them back from
//!   (`sendDown`);
//! * **ℓ-links** — which level-1 descendant nodes a committee member
//!   exchanges opened values with (`sendOpen`).
//!
//! The tree is common knowledge: every processor derives the identical
//! structure from the public seed, mirroring the paper's assumption that
//! "each processor has a copy of the required samplers".

use crate::params::Params;
use ba_sim::{derive_rng, ProcId, SimRng};
use rand::Rng;
use std::sync::OnceLock;

/// Label space (within the master seed) for topology generation streams.
const TOPOLOGY_LABEL: u64 = 1 << 41;

/// Address of a committee: level (1-based, root = `params.levels`) and
/// node index within the level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeAddr {
    /// Tree level in `1..=levels`.
    pub level: usize,
    /// Node index within the level.
    pub index: usize,
}

impl NodeAddr {
    /// Creates a node address.
    pub fn new(level: usize, index: usize) -> Self {
        NodeAddr { level, index }
    }
}

/// The communication tree. Membership is drawn when the tree is
/// generated; each level's uplinks and ℓ-links are drawn on first access
/// (only the wire-level `sendSecretUp → sendDown → sendOpen` pipeline
/// reads them), continuing that level's stream exactly where the
/// membership draws left it — the same links an eager draw produces.
#[derive(Clone, Debug)]
pub struct Tree {
    params: Params,
    /// `members[l-1][node]` = processor ids in that committee.
    members: Vec<Vec<Vec<u32>>>,
    /// `links[l-1]` = that level's uplinks and ℓ-links, drawn lazily.
    links: Vec<LazyLinks>,
    /// `member_of[p]` = list of (level, node, member index) where
    /// processor `p` serves.
    member_of: Vec<Vec<(u32, u32, u32)>>,
}

/// One level's link families, drawn on first access from a snapshot of
/// the level's stream taken right after its membership draws.
#[derive(Clone, Debug)]
struct LazyLinks {
    level: usize,
    rng: SimRng,
    drawn: OnceLock<LevelLinks>,
}

/// Uplinks and ℓ-links of one level.
#[derive(Clone, Debug)]
struct LevelLinks {
    /// `uplinks[node][member]` = member indices in the parent committee
    /// (empty for the root level).
    uplinks: Vec<Vec<Vec<u32>>>,
    /// `llinks[node][member]` = level-1 node ids inside this node's
    /// subtree (empty for level 1).
    llinks: Vec<Vec<Vec<u32>>>,
}

impl LazyLinks {
    fn get(&self, params: &Params) -> &LevelLinks {
        self.drawn
            .get_or_init(|| draw_links(params, self.level, &mut self.rng.clone()))
    }
}

/// The level's stream: membership draws first, then uplinks, then
/// ℓ-links.
fn level_rng(seed: u64, level: usize) -> SimRng {
    derive_rng(seed, TOPOLOGY_LABEL | ((level as u64) << 20))
}

/// Membership of every committee at `level`: the root holds everyone;
/// other committees are sampler-populated (uniform multiset — see
/// ba-sampler docs).
fn draw_members<R: Rng + ?Sized>(params: &Params, level: usize, rng: &mut R) -> Vec<Vec<u32>> {
    let n = params.n;
    let size = params.node_size(level);
    (0..params.node_count(level))
        .map(|_| {
            if size >= n {
                (0..n as u32).collect()
            } else {
                sample_distinct(n, size, rng)
            }
        })
        .collect()
}

/// Uplinks to the parent committee (none for the root), then ℓ-links
/// from committee members to level-1 descendant nodes (none for level 1).
fn draw_links<R: Rng + ?Sized>(params: &Params, level: usize, rng: &mut R) -> LevelLinks {
    let count = params.node_count(level);
    let size = params.node_size(level);
    let uplinks = if level == params.levels {
        Vec::new()
    } else {
        let parent_size = params.node_size(level + 1);
        let d = params.uplink_degree.min(parent_size);
        (0..count)
            .map(|_| {
                (0..size)
                    .map(|_| sample_distinct(parent_size, d, rng))
                    .collect()
            })
            .collect()
    };
    let llinks = if level == 1 {
        Vec::new()
    } else {
        (0..count)
            .map(|node| {
                let leaves = leaf_range_for(params, level, node);
                let span = leaves.end - leaves.start;
                let d = params.llink_degree.min(span);
                (0..size)
                    .map(|_| {
                        let mut v = sample_distinct(span, d, rng);
                        for e in &mut v {
                            *e += leaves.start as u32;
                        }
                        v
                    })
                    .collect()
            })
            .collect()
    };
    LevelLinks { uplinks, llinks }
}

impl Tree {
    /// Generates the tree for `params` from a public seed.
    ///
    /// # Panics
    ///
    /// Panics if `params.validate()` fails.
    pub fn generate(params: &Params, seed: u64) -> Self {
        params.validate().expect("invalid parameters");
        let mut members = Vec::with_capacity(params.levels);
        let mut links = Vec::with_capacity(params.levels);
        for level in 1..=params.levels {
            let mut rng = level_rng(seed, level);
            members.push(draw_members(params, level, &mut rng));
            links.push(LazyLinks {
                level,
                rng,
                drawn: OnceLock::new(),
            });
        }

        // Reverse index: which committees each processor serves in.
        let mut member_of: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); params.n];
        for (li, lvl) in members.iter().enumerate() {
            for (node, ms) in lvl.iter().enumerate() {
                for (mi, &p) in ms.iter().enumerate() {
                    member_of[p as usize].push(((li + 1) as u32, node as u32, mi as u32));
                }
            }
        }

        Tree {
            params: params.clone(),
            members,
            links,
            member_of,
        }
    }

    /// The parameters this tree was generated from.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Committee membership (processor ids).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn members(&self, at: NodeAddr) -> &[u32] {
        &self.members[at.level - 1][at.index]
    }

    /// The parent-committee member indices a member's uplinks point to.
    ///
    /// # Panics
    ///
    /// Panics for root-level addresses or out-of-range members.
    pub fn uplinks(&self, at: NodeAddr, member: usize) -> &[u32] {
        &self.links[at.level - 1].get(&self.params).uplinks[at.index][member]
    }

    /// The level-1 descendant node ids a member's ℓ-links point to.
    ///
    /// # Panics
    ///
    /// Panics for level-1 addresses or out-of-range members.
    pub fn llinks(&self, at: NodeAddr, member: usize) -> &[u32] {
        &self.links[at.level - 1].get(&self.params).llinks[at.index][member]
    }

    /// Parent node address.
    ///
    /// # Panics
    ///
    /// Panics for the root.
    pub fn parent(&self, at: NodeAddr) -> NodeAddr {
        assert!(at.level < self.params.levels, "root has no parent");
        if at.level + 1 == self.params.levels {
            NodeAddr::new(at.level + 1, 0)
        } else {
            NodeAddr::new(at.level + 1, at.index / self.params.q)
        }
    }

    /// Child node addresses (may be fewer than `q` at the ragged edge; the
    /// root's children are every node of the level below).
    pub fn children(&self, at: NodeAddr) -> Vec<NodeAddr> {
        assert!(at.level >= 2, "leaves have no children");
        let child_level = at.level - 1;
        let child_count = self.params.node_count(child_level);
        if at.level == self.params.levels {
            return (0..child_count)
                .map(|i| NodeAddr::new(child_level, i))
                .collect();
        }
        let q = self.params.q;
        (at.index * q..((at.index + 1) * q).min(child_count))
            .map(|i| NodeAddr::new(child_level, i))
            .collect()
    }

    /// The contiguous range of level-1 node ids in `at`'s subtree.
    pub fn leaf_range(&self, at: NodeAddr) -> std::ops::Range<usize> {
        leaf_range_for(&self.params, at.level, at.index)
    }

    /// The level-`level` node whose subtree contains leaf node `leaf`.
    pub fn ancestor_of_leaf(&self, leaf: usize, level: usize) -> NodeAddr {
        assert!(leaf < self.params.n, "leaf out of range");
        if level == self.params.levels {
            return NodeAddr::new(level, 0);
        }
        let mut idx = leaf;
        for _ in 1..level {
            idx /= self.params.q;
        }
        NodeAddr::new(level, idx)
    }

    /// All committees (level, node, member-index) processor `p` serves in.
    pub fn memberships(&self, p: ProcId) -> impl Iterator<Item = (NodeAddr, usize)> + '_ {
        self.member_of[p.index()]
            .iter()
            .map(|&(l, node, mi)| (NodeAddr::new(l as usize, node as usize), mi as usize))
    }

    /// Total number of committees across all levels.
    pub fn total_nodes(&self) -> usize {
        (1..=self.params.levels)
            .map(|l| self.params.node_count(l))
            .sum()
    }

    /// Reverse uplink query: which members of child committee `child`
    /// uplink to member `parent_member` of its parent. This is the
    /// `sendDown` fan — "sends its i-shares down the uplinks it came
    /// from" (§3.2.3). O(k·d) scan; called on demo-scale trees.
    pub fn downlink_sources(&self, child: NodeAddr, parent_member: usize) -> Vec<usize> {
        (0..self.members(child).len())
            .filter(|&m| {
                self.uplinks(child, m)
                    .iter()
                    .any(|&u| u as usize == parent_member)
            })
            .collect()
    }

    /// Reverse ℓ-link query: which members of committee `at` hold an
    /// ℓ-link to level-1 node `leaf` — the recipients of that leaf
    /// committee's `sendOpen` reports. O(k·d) scan.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is outside `at`'s subtree.
    pub fn llink_members_for_leaf(&self, at: NodeAddr, leaf: usize) -> Vec<usize> {
        assert!(
            self.leaf_range(at).contains(&leaf),
            "leaf {leaf} outside subtree of {at:?}"
        );
        (0..self.members(at).len())
            .filter(|&m| self.llinks(at, m).iter().any(|&x| x as usize == leaf))
            .collect()
    }
}

/// Leaf range of node `index` at `level` (free function so generation can
/// use it before the `Tree` exists).
fn leaf_range_for(params: &Params, level: usize, index: usize) -> std::ops::Range<usize> {
    if level == params.levels {
        return 0..params.n;
    }
    let mut span = 1usize;
    for _ in 1..level {
        span = span.saturating_mul(params.q);
    }
    let start = index * span;
    start..((index + 1) * span).min(params.n)
}

/// Uniform `k`-subset of `0..m` (Floyd's algorithm), as committee and link
/// draws; distinct elements keep per-member link sets simple. Sorted for
/// determinism of iteration order.
fn sample_distinct<R: Rng + ?Sized>(m: usize, k: usize, rng: &mut R) -> Vec<u32> {
    debug_assert!(k <= m);
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in m - k..m {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick as u32);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> Tree {
        let p = Params::practical(64);
        Tree::generate(&p, 42)
    }

    #[test]
    fn structure_counts() {
        let t = small_tree();
        let p = t.params().clone();
        // 64 → 16 → 4 → 1 with q = 4: four levels.
        assert_eq!(p.levels, 4);
        let mut want = 64;
        for l in 1..=p.levels {
            assert_eq!(p.node_count(l), if l == p.levels { 1 } else { want });
            want = want.div_ceil(p.q);
        }
    }

    #[test]
    fn membership_sizes_match_params() {
        let t = small_tree();
        let p = t.params();
        for l in 1..=p.levels {
            for i in 0..p.node_count(l) {
                let at = NodeAddr::new(l, i);
                assert_eq!(t.members(at).len(), p.node_size(l), "level {l} node {i}");
                // All member ids valid and distinct.
                let mut ids: Vec<u32> = t.members(at).to_vec();
                ids.dedup();
                assert_eq!(ids.len(), p.node_size(l));
                assert!(ids.iter().all(|&x| (x as usize) < p.n));
            }
        }
    }

    #[test]
    fn root_contains_everyone() {
        let t = small_tree();
        let root = NodeAddr::new(t.params().levels, 0);
        let ms = t.members(root);
        assert_eq!(ms.len(), 64);
        assert!((0..64u32).all(|i| ms.contains(&i)));
    }

    #[test]
    fn parent_child_consistency() {
        let t = small_tree();
        let p = t.params();
        for l in 2..=p.levels {
            for i in 0..p.node_count(l) {
                let at = NodeAddr::new(l, i);
                for c in t.children(at) {
                    assert_eq!(t.parent(c), at, "child {c:?} of {at:?}");
                }
            }
        }
    }

    #[test]
    fn every_non_root_has_children_covering_level() {
        let t = small_tree();
        let p = t.params();
        for l in 2..=p.levels {
            let covered: usize = (0..p.node_count(l))
                .map(|i| t.children(NodeAddr::new(l, i)).len())
                .sum();
            assert_eq!(covered, p.node_count(l - 1), "level {l}");
        }
    }

    #[test]
    fn leaf_ranges_partition() {
        let t = small_tree();
        let p = t.params();
        for l in 1..=p.levels {
            let mut seen = vec![false; p.n];
            for i in 0..p.node_count(l) {
                for leaf in t.leaf_range(NodeAddr::new(l, i)) {
                    assert!(!seen[leaf], "leaf {leaf} covered twice at level {l}");
                    seen[leaf] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "level {l} leaves not covered");
        }
    }

    #[test]
    fn ancestor_of_leaf_matches_ranges() {
        let t = small_tree();
        let p = t.params();
        for leaf in [0usize, 13, 37, 63] {
            for l in 1..=p.levels {
                let anc = t.ancestor_of_leaf(leaf, l);
                assert!(t.leaf_range(anc).contains(&leaf));
            }
        }
    }

    #[test]
    fn uplinks_point_into_parent() {
        let t = small_tree();
        let p = t.params();
        for l in 1..p.levels {
            let parent_size = p.node_size(l + 1);
            for i in 0..p.node_count(l) {
                let at = NodeAddr::new(l, i);
                for m in 0..p.node_size(l) {
                    let ups = t.uplinks(at, m);
                    assert!(!ups.is_empty());
                    assert!(ups.iter().all(|&u| (u as usize) < parent_size));
                    // Distinct.
                    let mut v = ups.to_vec();
                    v.dedup();
                    assert_eq!(v.len(), ups.len());
                }
            }
        }
    }

    #[test]
    fn llinks_point_into_subtree() {
        let t = small_tree();
        let p = t.params();
        for l in 2..=p.levels {
            for i in 0..p.node_count(l) {
                let at = NodeAddr::new(l, i);
                let range = t.leaf_range(at);
                for m in 0..p.node_size(l) {
                    let lls = t.llinks(at, m);
                    assert!(!lls.is_empty());
                    assert!(lls.iter().all(|&x| range.contains(&(x as usize))));
                }
            }
        }
    }

    #[test]
    fn memberships_reverse_index_consistent() {
        let t = small_tree();
        for pid in 0..64 {
            for (at, mi) in t.memberships(ba_sim::ProcId::new(pid)) {
                assert_eq!(t.members(at)[mi] as usize, pid);
            }
        }
        // Every committee seat appears in exactly one processor's list.
        let total_seats: usize = (1..=t.params().levels)
            .map(|l| t.params().node_count(l) * t.params().node_size(l))
            .sum();
        let listed: usize = (0..64)
            .map(|p| t.memberships(ba_sim::ProcId::new(p)).count())
            .sum();
        assert_eq!(total_seats, listed);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Params::practical(64);
        let a = Tree::generate(&p, 7);
        let b = Tree::generate(&p, 7);
        let c = Tree::generate(&p, 8);
        let at = NodeAddr::new(2, 3);
        assert_eq!(a.members(at), b.members(at));
        assert_ne!(a.members(at), c.members(at));
    }

    #[test]
    fn total_nodes_counts_all_levels() {
        let t = small_tree();
        let p = t.params();
        let expect: usize = (1..=p.levels).map(|l| p.node_count(l)).sum();
        assert_eq!(t.total_nodes(), expect);
    }

    #[test]
    #[should_panic(expected = "root has no parent")]
    fn root_parent_panics() {
        let t = small_tree();
        let _ = t.parent(NodeAddr::new(t.params().levels, 0));
    }

    #[test]
    fn downlink_sources_invert_uplinks() {
        let t = small_tree();
        let child = NodeAddr::new(1, 5);
        let parent_size = t.params().node_size(2);
        for pm in 0..parent_size {
            for m in t.downlink_sources(child, pm) {
                assert!(t.uplinks(child, m).contains(&(pm as u32)));
            }
        }
        // Every uplink appears in exactly one reverse list.
        let total_up: usize = (0..t.params().node_size(1))
            .map(|m| t.uplinks(child, m).len())
            .sum();
        let total_down: usize = (0..parent_size)
            .map(|pm| t.downlink_sources(child, pm).len())
            .sum();
        assert_eq!(total_up, total_down);
    }

    #[test]
    fn llink_reverse_matches_forward() {
        let t = small_tree();
        let at = NodeAddr::new(2, 3);
        for leaf in t.leaf_range(at) {
            for m in t.llink_members_for_leaf(at, leaf) {
                assert!(t.llinks(at, m).contains(&(leaf as u32)));
            }
        }
    }

    /// The eager generator the lazy links replaced, kept as the oracle:
    /// every level's stream drawn front to back — membership, uplinks,
    /// ℓ-links — at generation time.
    fn eager_links(params: &Params, seed: u64) -> Vec<LevelLinks> {
        let (levels, n) = (params.levels, params.n);
        let mut out = Vec::with_capacity(levels);
        for level in 1..=levels {
            let count = params.node_count(level);
            let size = params.node_size(level);
            let mut rng = derive_rng(seed, TOPOLOGY_LABEL | ((level as u64) << 20));
            for _ in 0..count {
                if size < n {
                    sample_distinct(n, size, &mut rng);
                }
            }
            let uplinks: Vec<Vec<Vec<u32>>> = if level == levels {
                Vec::new()
            } else {
                let parent_size = params.node_size(level + 1);
                let d = params.uplink_degree.min(parent_size);
                (0..count)
                    .map(|_| {
                        (0..size)
                            .map(|_| sample_distinct(parent_size, d, &mut rng))
                            .collect()
                    })
                    .collect()
            };
            let llinks: Vec<Vec<Vec<u32>>> = if level == 1 {
                Vec::new()
            } else {
                (0..count)
                    .map(|node| {
                        let leaves = leaf_range_for(params, level, node);
                        let span = leaves.end - leaves.start;
                        let d = params.llink_degree.min(span);
                        (0..size)
                            .map(|_| {
                                let mut v = sample_distinct(span, d, &mut rng);
                                for e in &mut v {
                                    *e += leaves.start as u32;
                                }
                                v
                            })
                            .collect()
                    })
                    .collect()
            };
            out.push(LevelLinks { uplinks, llinks });
        }
        out
    }

    /// Every uplink/ℓ-link slice at `level` equals the oracle's.
    fn assert_level_matches(t: &Tree, oracle: &[LevelLinks], level: usize) {
        let p = t.params();
        let want = &oracle[level - 1];
        for node in 0..p.node_count(level) {
            let at = NodeAddr::new(level, node);
            for m in 0..p.node_size(level) {
                if level < p.levels {
                    assert_eq!(t.uplinks(at, m), &want.uplinks[node][m][..], "{at:?} m{m}");
                }
                if level > 1 {
                    assert_eq!(t.llinks(at, m), &want.llinks[node][m][..], "{at:?} m{m}");
                }
            }
        }
    }

    #[test]
    fn lazy_links_equal_eager_draws() {
        for n in [64usize, 256, 1024] {
            // The scale profile (exp_scale, stackbench) shrinks k₁ to
            // 2·log₂ n; nothing else it changes reaches the tree.
            let k1 = (2.0 * (n as f64).log2()).ceil() as usize;
            for params in [Params::practical(n), Params::practical(n).with_k1(k1)] {
                let seed = 0x7EE ^ n as u64;
                let oracle = eager_links(&params, seed);
                // Levels first touched root-down.
                let t = Tree::generate(&params, seed);
                for level in (1..=params.levels).rev() {
                    assert_level_matches(&t, &oracle, level);
                }
                // Two threads racing on one fresh tree, in opposite orders.
                let t = Tree::generate(&params, seed);
                std::thread::scope(|s| {
                    s.spawn(|| {
                        for level in (1..=params.levels).rev() {
                            assert_level_matches(&t, &oracle, level);
                        }
                    });
                    s.spawn(|| {
                        for level in 1..=params.levels {
                            assert_level_matches(&t, &oracle, level);
                        }
                    });
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside subtree")]
    fn llink_reverse_rejects_foreign_leaf() {
        let t = small_tree();
        let at = NodeAddr::new(2, 0);
        let outside = t.leaf_range(at).end; // first leaf of the next node
        let _ = t.llink_members_for_leaf(at, outside);
    }
}
