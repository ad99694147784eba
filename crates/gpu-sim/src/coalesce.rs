//! Per-warp-instruction address bookkeeping: the distinct sectors, lines,
//! addresses or shared-memory words one warp instruction touches.
//!
//! Every warp memory instruction reduces its (at most 32) lane values to
//! the distinct ones in order of first appearance — the order in which the
//! cache model is probed, so the order is part of the modeled result. Lane
//! addresses almost always ascend (coalesced and strided patterns do, and
//! CSR gathers mostly do), so [`LaneSet`] tracks its running maximum: a
//! value above it is new without a search, a value equal to it is a
//! repeat, and only a value below it scans the set.

use crate::exec::WARP_LANES;

/// Order-preserving set of at most [`WARP_LANES`] distinct values.
pub(crate) struct LaneSet {
    vals: [u64; WARP_LANES],
    len: usize,
    /// Position of the largest value inserted so far.
    max_at: usize,
}

impl LaneSet {
    #[inline]
    pub(crate) fn new() -> Self {
        LaneSet {
            vals: [0; WARP_LANES],
            len: 0,
            max_at: 0,
        }
    }

    /// Insert `v`, returning its position in first-appearance order and
    /// whether it was new. At most [`WARP_LANES`] distinct values fit.
    #[inline]
    pub(crate) fn insert(&mut self, v: u64) -> (usize, bool) {
        if self.len > 0 {
            let max = self.vals[self.max_at];
            if v == max {
                return (self.max_at, false);
            }
            if v < max {
                if let Some(at) = self.vals[..self.len].iter().position(|&x| x == v) {
                    return (at, false);
                }
                self.vals[self.len] = v;
                self.len += 1;
                return (self.len - 1, true);
            }
        }
        self.vals[self.len] = v;
        self.max_at = self.len;
        self.len += 1;
        (self.max_at, true)
    }

    /// Number of distinct values.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The distinct values in first-appearance order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u64] {
        &self.vals[..self.len]
    }
}

/// What one warp load touches: its distinct 32-byte sectors, and its
/// distinct cache lines in first-touch order with how many of those
/// sectors fall in each line.
pub(crate) struct LoadFootprint {
    /// Lanes with an address.
    pub active: usize,
    /// Distinct sectors.
    pub sectors: usize,
    /// Distinct lines, in the order their first sector appears.
    pub lines: LaneSet,
    /// `sectors_in_line[i]`: distinct sectors of `lines.as_slice()[i]`.
    pub sectors_in_line: [u8; WARP_LANES],
}

/// Reduce one warp load's lane addresses to its [`LoadFootprint`]. Sector
/// and line sizes are `1 << sector_shift` and `1 << line_shift` bytes,
/// with `sector_shift <= line_shift` (checked when a [`crate::Gpu`] is
/// built).
#[inline]
pub(crate) fn load_footprint(
    addrs: &[Option<u64>; WARP_LANES],
    sector_shift: u32,
    line_shift: u32,
) -> LoadFootprint {
    let sectors_per_line_shift = line_shift - sector_shift;
    let mut sectors = LaneSet::new();
    let mut lines = LaneSet::new();
    let mut sectors_in_line = [0u8; WARP_LANES];
    let mut active = 0;
    for &addr in addrs.iter().flatten() {
        active += 1;
        let s = addr >> sector_shift;
        if sectors.insert(s).1 {
            let (at, _) = lines.insert(s >> sectors_per_line_shift);
            sectors_in_line[at] += 1;
        }
    }
    LoadFootprint {
        active,
        sectors: sectors.len(),
        lines,
        sectors_in_line,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::mix64;

    /// Seeded warp lane patterns covering the accounting cases: coalesced,
    /// strided, gather, duplicate-address, and predicated-off lanes (mixed
    /// into every pattern kind), with both ascending and descending runs.
    pub(crate) fn lane_patterns(seed: u64, count: usize) -> Vec<[Option<u64>; WARP_LANES]> {
        (0..count as u64)
            .map(|k| {
                let r = |salt: u64| mix64(seed ^ mix64(k * 64 + salt));
                let base = 0x1000 + (r(0) % 4096) * 8;
                let kind = r(1) % 6;
                let stride = [8, 16, 24, 40, 128, 256, 1032][(r(2) % 7) as usize];
                let off_rate = [0, 0, 2, 4, 8][(r(3) % 5) as usize];
                std::array::from_fn(|lane| {
                    let l = lane as u64;
                    let h = r(100 + l);
                    if off_rate > 0 && h % off_rate == 0 {
                        return None;
                    }
                    Some(match kind {
                        0 => base + 8 * l,                      // coalesced f64
                        1 => base + stride * l,                 // strided
                        2 => base + (h >> 8) % 8192 * 8,        // gather
                        3 => base + 8 * (l % 3),                // duplicate addresses
                        4 => base + 8 * (31 - l) + 4 * (l & 1), // descending, u32-sized
                        _ => base + (h >> 8) % 64 * 4,          // gather inside a few lines
                    })
                })
            })
            .collect()
    }

    /// Reference: the search-every-lane dedupe the simulator used before
    /// [`LaneSet`], with runtime divisions. Returns the distinct sectors,
    /// then the distinct lines with their sector counts, in probe order.
    pub(crate) fn reference_footprint(
        addrs: &[Option<u64>; WARP_LANES],
        sector_bytes: u64,
        line_bytes: u64,
    ) -> (Vec<u64>, Vec<(u64, u64)>) {
        let mut sectors = [u64::MAX; WARP_LANES];
        let mut ns = 0;
        for addr in addrs.iter().flatten() {
            let s = addr / sector_bytes;
            if !sectors[..ns].contains(&s) {
                sectors[ns] = s;
                ns += 1;
            }
        }
        let mut lines = [u64::MAX; WARP_LANES];
        let mut nl = 0;
        for &s in &sectors[..ns] {
            let l = s * sector_bytes / line_bytes;
            if !lines[..nl].contains(&l) {
                lines[nl] = l;
                nl += 1;
            }
        }
        let per_line = lines[..nl]
            .iter()
            .map(|&l| {
                let n = sectors[..ns]
                    .iter()
                    .filter(|&&s| s * sector_bytes / line_bytes == l)
                    .count() as u64;
                (l, n)
            })
            .collect();
        (sectors[..ns].to_vec(), per_line)
    }

    /// Reference distinct count of raw lane values (atomics, store sectors).
    fn reference_distinct(vals: &[u64]) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for &v in vals {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn lane_set_matches_reference_dedupe_in_order() {
        for seed in [1, 2, 3] {
            for addrs in lane_patterns(seed, 2000) {
                let vals: Vec<u64> = addrs.iter().flatten().copied().collect();
                let mut set = LaneSet::new();
                let mut positions = Vec::new();
                for &v in &vals {
                    let (at, new) = set.insert(v);
                    assert_eq!(set.as_slice()[at], v);
                    positions.push((at, new));
                }
                let reference = reference_distinct(&vals);
                assert_eq!(set.as_slice(), reference.as_slice(), "{addrs:?}");
                assert_eq!(
                    positions.iter().filter(|(_, new)| *new).count(),
                    reference.len()
                );
            }
        }
    }

    #[test]
    fn load_footprint_matches_reference_sectors_lines_and_order() {
        for (sector, line) in [(32u64, 128u64), (32, 32), (16, 256)] {
            for seed in [7, 8, 9] {
                for addrs in lane_patterns(seed, 2000) {
                    let fp = load_footprint(&addrs, sector.trailing_zeros(), line.trailing_zeros());
                    let (ref_sectors, ref_lines) = reference_footprint(&addrs, sector, line);
                    assert_eq!(fp.active, addrs.iter().flatten().count());
                    assert_eq!(fp.sectors, ref_sectors.len(), "{addrs:?}");
                    let got: Vec<(u64, u64)> = fp
                        .lines
                        .as_slice()
                        .iter()
                        .zip(&fp.sectors_in_line)
                        .map(|(&l, &n)| (l, u64::from(n)))
                        .collect();
                    assert_eq!(got, ref_lines, "{addrs:?}");
                }
            }
        }
    }

    #[test]
    fn warp_load_probes_match_reference_pipeline_hit_for_hit() {
        use crate::cache::{tests::StampLru, CacheModel};
        // A small 2-way cache so the seeded patterns evict.
        let (sector, line) = (32u64, 128u64);
        let mut new_cache = CacheModel::new(8 * 1024, 128, 2);
        let mut old_cache = StampLru::new(8 * 1024, 128, 2);
        let (mut new_log, mut old_log) = (Vec::new(), Vec::new());
        for addrs in lane_patterns(41, 4000) {
            let fp = load_footprint(&addrs, sector.trailing_zeros(), line.trailing_zeros());
            for (&l, &n) in fp.lines.as_slice().iter().zip(&fp.sectors_in_line) {
                let a = l << line.trailing_zeros();
                new_log.push((a, u64::from(n) * sector, new_cache.access(a)));
            }
            let (_, ref_lines) = reference_footprint(&addrs, sector, line);
            for (l, n) in ref_lines {
                let a = l * line;
                old_log.push((a, n * sector, old_cache.access(a)));
            }
        }
        assert_eq!(new_log, old_log);
        assert!(new_log.iter().any(|p| p.2) && new_log.iter().any(|p| !p.2));
    }

    #[test]
    fn fully_predicated_off_warp_touches_nothing() {
        let fp = load_footprint(&[None; WARP_LANES], 5, 7);
        assert_eq!((fp.active, fp.sectors, fp.lines.len()), (0, 0, 0));
    }
}
