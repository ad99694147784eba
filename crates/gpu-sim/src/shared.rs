//! Shared-memory bank-conflict accounting.
//!
//! Kepler SMs expose 32 banks; in 8-byte mode consecutive 64-bit words map
//! to consecutive banks. A warp instruction whose lanes touch `k` *distinct*
//! words in the same bank replays `k - 1` times. Multiple lanes reading the
//! *same* word broadcast without conflict.

use crate::coalesce::LaneSet;
use crate::exec::WARP_LANES;

/// Number of extra replays for one warp-wide shared-memory access touching
/// the given 8-byte word indices (`None` = inactive lane).
pub fn bank_conflict_replays(word_indices: &[Option<usize>], banks: usize) -> u64 {
    debug_assert!(banks > 0 && banks <= 64);
    // distinct words per bank
    let mut per_bank_words: Vec<Vec<usize>> = vec![Vec::new(); banks];
    for idx in word_indices.iter().flatten() {
        let bank = idx % banks;
        if !per_bank_words[bank].contains(idx) {
            per_bank_words[bank].push(*idx);
        }
    }
    let max_degree = per_bank_words.iter().map(Vec::len).max().unwrap_or(0);
    max_degree.saturating_sub(1) as u64
}

/// Number of active lanes whose word an earlier lane of the same warp-wide
/// access already touched. Loads and stores broadcast these for free;
/// shared atomics on one word serialize, so they replay once per repeat.
pub(crate) fn same_word_repeats(word_indices: &[Option<usize>; WARP_LANES]) -> u64 {
    let mut words = LaneSet::new();
    word_indices
        .iter()
        .flatten()
        .filter(|&&w| !words.insert(w as u64).1)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the `seen` list shared atomics built on every access
    /// before [`same_word_repeats`].
    fn reference_repeats(word_indices: &[Option<usize>]) -> u64 {
        let mut extra = 0u64;
        let mut seen: Vec<usize> = Vec::new();
        for w in word_indices.iter().flatten() {
            if seen.contains(w) {
                extra += 1;
            } else {
                seen.push(*w);
            }
        }
        extra
    }

    #[test]
    fn same_word_repeats_match_reference_on_seeded_patterns() {
        for (k, addrs) in crate::coalesce::tests::lane_patterns(31, 6000)
            .into_iter()
            .enumerate()
        {
            // Byte addresses to 8-byte words; every third pattern folded
            // into a small array to force more same-word lanes.
            let fold = if k % 3 == 0 { 48 } else { usize::MAX };
            let words: [Option<usize>; WARP_LANES] =
                std::array::from_fn(|l| addrs[l].map(|a| (a as usize / 8) % fold));
            assert_eq!(
                same_word_repeats(&words),
                reference_repeats(&words),
                "{words:?}"
            );
        }
    }

    #[test]
    fn same_word_repeats_count_lanes_after_the_first() {
        assert_eq!(same_word_repeats(&[Some(7); 32]), 31);
        assert_eq!(same_word_repeats(&std::array::from_fn(Some)), 0);
        assert_eq!(same_word_repeats(&[None; 32]), 0);
    }

    #[test]
    fn conflict_free_sequential_access() {
        let idx: Vec<Option<usize>> = (0..32).map(Some).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 0);
    }

    #[test]
    fn broadcast_is_free() {
        let idx: Vec<Option<usize>> = (0..32).map(|_| Some(7)).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 0);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        let idx: Vec<Option<usize>> = (0..32).map(|l| Some(l * 2)).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 1);
    }

    #[test]
    fn stride_32_fully_serializes() {
        let idx: Vec<Option<usize>> = (0..32).map(|l| Some(l * 32)).collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 31);
    }

    #[test]
    fn inactive_lanes_ignored() {
        let idx: Vec<Option<usize>> = (0..32)
            .map(|l| if l < 4 { Some(l * 32) } else { None })
            .collect();
        assert_eq!(bank_conflict_replays(&idx, 32), 3);
    }

    #[test]
    fn empty_warp_no_conflicts() {
        let idx = [None; 32];
        assert_eq!(bank_conflict_replays(&idx, 32), 0);
    }
}
