//! A fixed-size set of warp indices, one bit per warp, for the SM's
//! round-robin scans.

/// Warp indices `0..n` as a bitset of `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WarpSet {
    words: Vec<u64>,
}

impl WarpSet {
    /// The set of `i < n` for which `member(i)` holds.
    pub(crate) fn from_fn(n: usize, mut member: impl FnMut(usize) -> bool) -> Self {
        let mut set = Self {
            words: vec![0; n.div_ceil(64)],
        };
        for i in 0..n {
            set.assign(i, member(i));
        }
        set
    }

    /// Add `i` to the set when `on`, else remove it.
    #[inline]
    pub(crate) fn assign(&mut self, i: usize, on: bool) {
        let bit = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The smallest member in `[from, end)`, if any.
    #[inline]
    fn next_in(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.words[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                return (i < end).then_some(i);
            }
            w += 1;
            if w * 64 >= end {
                return None;
            }
            bits = self.words[w];
        }
    }
}

/// Walks a [`WarpSet`]'s members in round-robin order from `start`: the
/// segment `[start, n)`, then `[0, start)` — the order of the filter
/// `(start + off) % n` for `off` in `0..n`. The cursor holds no borrow,
/// so the caller may change the set between calls; it only moves
/// forward, so an index it has passed is never yielded again.
pub(crate) struct Ring {
    at: usize,
    end: usize,
    wrap_end: usize,
}

impl Ring {
    /// A cursor over `0..n` starting at `start < n`.
    pub(crate) fn new(start: usize, n: usize) -> Self {
        Self {
            at: start,
            end: n,
            wrap_end: start,
        }
    }

    /// The next member of `set` in ring order, or None once both
    /// segments are exhausted.
    #[inline]
    pub(crate) fn next(&mut self, set: &WarpSet) -> Option<usize> {
        loop {
            if let Some(i) = set.next_in(self.at, self.end) {
                self.at = i + 1;
                return Some(i);
            }
            if self.wrap_end == 0 {
                return None;
            }
            self.at = 0;
            self.end = self.wrap_end;
            self.wrap_end = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    const SIZES: [usize; 7] = [1, 2, 63, 64, 65, 128, 200];

    fn random_members(n: usize, density: f64, rng: &mut SmallRng) -> Vec<bool> {
        (0..n).map(|_| rng.random::<f64>() < density).collect()
    }

    /// The linear scan the ring cursor replaces.
    fn naive(members: &[bool], start: usize) -> Vec<usize> {
        let n = members.len();
        (0..n)
            .map(|off| (start + off) % n)
            .filter(|&i| members[i])
            .collect()
    }

    fn ring(set: &WarpSet, start: usize, n: usize, mut visit: impl FnMut(usize)) {
        let mut cursor = Ring::new(start, n);
        while let Some(i) = cursor.next(set) {
            visit(i);
        }
    }

    #[test]
    fn ring_order_matches_the_linear_scan() {
        let mut rng = SmallRng::seed_from_u64(0x5E7);
        for n in SIZES {
            for density in [0.0, 0.05, 0.5, 0.95, 1.0] {
                let members = random_members(n, density, &mut rng);
                let set = WarpSet::from_fn(n, |i| members[i]);
                for start in 0..n {
                    let mut got = Vec::new();
                    ring(&set, start, n, |i| got.push(i));
                    assert_eq!(got, naive(&members, start), "n={n} start={start}");
                }
            }
        }
    }

    #[test]
    fn removing_the_visited_member_keeps_the_order() {
        // The CS retire and the LSU issue both drop the warp just visited.
        let mut rng = SmallRng::seed_from_u64(0xC5);
        for n in SIZES {
            for density in [0.1, 0.5, 1.0] {
                let members = random_members(n, density, &mut rng);
                for start in 0..n {
                    let mut set = WarpSet::from_fn(n, |i| members[i]);
                    let mut cursor = Ring::new(start, n);
                    let mut got = Vec::new();
                    while let Some(i) = cursor.next(&set) {
                        got.push(i);
                        set.assign(i, false);
                    }
                    assert_eq!(got, naive(&members, start), "n={n} start={start}");
                    assert_eq!(set, WarpSet::from_fn(n, |_| false));
                }
            }
        }
    }

    #[test]
    fn assign_adds_and_removes_across_words() {
        let mut set = WarpSet::from_fn(200, |_| false);
        for i in [0, 63, 64, 127, 128, 199] {
            set.assign(i, true);
        }
        set.assign(64, false);
        let mut got = Vec::new();
        ring(&set, 100, 200, |i| got.push(i));
        assert_eq!(got, [127, 128, 199, 0, 63]);
    }
}
