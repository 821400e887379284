//! Chain construction and the layout passes (§3 of the paper).
//!
//! Blocks with a predefined ordering — fall-through edges and
//! call/return site pairs — are linked into *chains*; remaining blocks
//! are singleton chains. The way-placement pass assigns each chain a
//! weight (the sum of its blocks' dynamic instruction counts) and
//! orders chains heaviest-first, so the hottest code lands at the start
//! of the binary where the way-placement area lives.

use crate::icfg::Icfg;
use crate::profile::Profile;

/// Deterministic SplitMix64 stream for the [`Layout::Random`] shuffle
/// (the repo is offline, so the external `rand` crate is unavailable;
/// `wp_mem::rng` holds the shared copy, but `wp-linker` deliberately
/// depends only on `wp-isa`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A chain: a maximal run of blocks glued by layout constraints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Chain {
    /// Natural block ids, in their fixed internal order.
    pub blocks: Vec<usize>,
    /// Total dynamic instruction count (0 without a profile).
    pub weight: u64,
}

/// Builds the chains of an ICFG, weighting them with `profile` (natural
/// block id → execution count).
#[must_use]
pub fn build_chains(icfg: &Icfg, profile: &Profile) -> Vec<Chain> {
    let blocks = icfg.blocks();
    let mut chains = Vec::new();
    let mut i = 0;
    while i < blocks.len() {
        let start = i;
        // Extend while the current block is glued to its natural
        // successor (fall-through or call/return). A final block with
        // glue set has no successor to glue to — `Icfg::build` never
        // produces that shape, but `from_blocks` callers can — so the
        // bound check comes first.
        while i + 1 < blocks.len() && blocks[i].glue_to_next.is_some() {
            i += 1;
        }
        i += 1;
        let members: Vec<usize> = (start..i).collect();
        let weight = members.iter().map(|&id| profile.count(id) * blocks[id].len as u64).sum();
        chains.push(Chain { blocks: members, weight });
    }
    chains
}

/// The code-layout strategies the linker offers.
///
/// Each variant is a [`crate::LayoutPass`]; the first four are the
/// original chain-sorting passes, the last two delegate to the
/// literature passes [`crate::ExtTsp`] and [`crate::Codestitcher`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Layout {
    /// Original (object concatenation) order — what an ordinary linker
    /// produces, and the layout profiling runs use.
    #[default]
    Natural,
    /// The paper's way-placement pass: chains sorted heaviest-first.
    WayPlacement,
    /// Chains shuffled deterministically — a stress baseline for the
    /// layout ablation.
    Random(u64),
    /// Chains sorted lightest-first — the adversarial layout, putting
    /// the coldest code in the way-placement area.
    Pessimal,
    /// Newell & Pupyrev's ext-TSP pass with default parameters
    /// ([`crate::ExtTsp`]).
    ExtTsp,
    /// Lavaee et al.'s Codestitcher pass with default budgets
    /// ([`crate::Codestitcher`]).
    Codestitcher,
}

impl Layout {
    /// Short label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Layout::Natural => "natural",
            Layout::WayPlacement => "way-placement",
            Layout::Random(_) => "random",
            Layout::Pessimal => "pessimal",
            Layout::ExtTsp => "ext-tsp",
            Layout::Codestitcher => "codestitcher",
        }
    }

    /// Orders chains according to the strategy, returning the block
    /// order for the final binary. The four chain-sorting passes ignore
    /// `icfg` and `profile`; the graph-aware passes need both.
    #[must_use]
    pub fn order(&self, icfg: &Icfg, profile: &Profile, mut chains: Vec<Chain>) -> Vec<usize> {
        use crate::passes::LayoutPass;
        match self {
            Layout::Natural => {}
            Layout::WayPlacement => {
                // Stable sort: equal-weight chains keep natural order,
                // making the pass deterministic.
                chains.sort_by_key(|c| std::cmp::Reverse(c.weight));
            }
            Layout::Random(seed) => {
                shuffle(&mut chains, *seed);
            }
            Layout::Pessimal => {
                chains.sort_by_key(|a| a.weight);
            }
            Layout::ExtTsp => {
                return crate::passes::ExtTsp::default().order(icfg, profile, chains);
            }
            Layout::Codestitcher => {
                return crate::passes::Codestitcher::default().order(icfg, profile, chains);
            }
        }
        chains.into_iter().flat_map(|c| c.blocks).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icfg::{Block, GlueKind};

    fn block(id: usize, len: usize, glue: Option<GlueKind>) -> Block {
        Block {
            natural_id: id,
            start: 0,
            len,
            branch_target: None,
            glue_to_next: glue,
            labels: Vec::new(),
        }
    }

    fn icfg_of(blocks: Vec<Block>) -> Icfg {
        // Fix up starts so ranges are consistent.
        let mut start = 0;
        let mut blocks = blocks;
        for b in &mut blocks {
            b.start = start;
            start += b.len;
        }
        Icfg::from_blocks(blocks)
    }

    #[test]
    fn chains_respect_glue() {
        let g = icfg_of(vec![
            block(0, 2, Some(GlueKind::FallThrough)),
            block(1, 3, None),
            block(2, 1, Some(GlueKind::CallReturn)),
            block(3, 1, None),
            block(4, 5, None),
        ]);
        let chains = build_chains(&g, &Profile::empty());
        let members: Vec<Vec<usize>> = chains.iter().map(|c| c.blocks.clone()).collect();
        assert_eq!(members, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn chain_weight_is_dynamic_instruction_count() {
        let g = icfg_of(vec![
            block(0, 2, Some(GlueKind::FallThrough)),
            block(1, 3, None),
            block(2, 4, None),
        ]);
        let profile = Profile::from_counts(vec![10, 20, 5]);
        let chains = build_chains(&g, &profile);
        assert_eq!(chains[0].weight, 10 * 2 + 20 * 3);
        assert_eq!(chains[1].weight, 5 * 4);
    }

    /// The chain-sorting passes ignore the graph and profile, so tests
    /// can hand them empty ones.
    fn sort_only(layout: Layout, chains: Vec<Chain>) -> Vec<usize> {
        layout.order(&icfg_of(Vec::new()), &Profile::empty(), chains)
    }

    #[test]
    fn way_placement_orders_heaviest_first() {
        let chains = vec![
            Chain { blocks: vec![0], weight: 5 },
            Chain { blocks: vec![1, 2], weight: 100 },
            Chain { blocks: vec![3], weight: 50 },
        ];
        assert_eq!(sort_only(Layout::WayPlacement, chains.clone()), vec![1, 2, 3, 0]);
        assert_eq!(sort_only(Layout::Natural, chains.clone()), vec![0, 1, 2, 3]);
        assert_eq!(sort_only(Layout::Pessimal, chains.clone()), vec![0, 3, 1, 2]);
        // Random is deterministic per seed and preserves chain unity.
        let a = sort_only(Layout::Random(9), chains.clone());
        let b = sort_only(Layout::Random(9), chains);
        assert_eq!(a, b);
        let pos1 = a.iter().position(|&x| x == 1).unwrap();
        assert_eq!(a[pos1 + 1], 2, "chain [1,2] stays contiguous");
    }

    #[test]
    fn equal_weights_keep_natural_order() {
        let chains = vec![
            Chain { blocks: vec![0], weight: 7 },
            Chain { blocks: vec![1], weight: 7 },
            Chain { blocks: vec![2], weight: 7 },
        ];
        assert_eq!(sort_only(Layout::WayPlacement, chains), vec![0, 1, 2]);
    }

    #[test]
    fn labels() {
        assert_eq!(Layout::WayPlacement.label(), "way-placement");
        assert_eq!(Layout::Random(3).label(), "random");
        assert_eq!(Layout::ExtTsp.label(), "ext-tsp");
        assert_eq!(Layout::Codestitcher.label(), "codestitcher");
    }

    /// Regression: a final block carrying `glue_to_next: Some(_)` used
    /// to walk `blocks[i]` past the end of the slice. `Icfg::build`
    /// never emits that shape, but `from_blocks` callers can; the glued
    /// tail block must simply close the last chain.
    #[test]
    fn trailing_glued_block_does_not_overrun() {
        let g = icfg_of(vec![
            block(0, 2, None),
            block(1, 3, Some(GlueKind::FallThrough)),
            block(2, 1, Some(GlueKind::CallReturn)),
        ]);
        let chains = build_chains(&g, &Profile::from_counts(vec![1, 2, 3]));
        let members: Vec<Vec<usize>> = chains.iter().map(|c| c.blocks.clone()).collect();
        assert_eq!(members, vec![vec![0], vec![1, 2]]);
        // count 2 × len 3 for block 1, count 3 × len 1 for block 2.
        assert_eq!(chains[1].weight, 2 * 3 + 3);
    }
}
