//! The benchmark's own seeded randomness: SplitMix64, a shuffle, and the
//! Zipf-weighted deck the LUBM request streams deal from. Kept in the
//! crate (no `rand`) so a stream is a pure function of its seed on every
//! host.

/// SplitMix64 — tiny, full-period, and good enough to pick queries.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct seeds give unrelated streams.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for sub-stream `lane` of `seed` (one per client). The
    /// state is mixed output, not `seed` plus a multiple of the step:
    /// that would make one lane another lane's stream a few draws on.
    pub fn lane(seed: u64, lane: u64) -> Self {
        Rng(Rng(seed).next_u64() ^ Rng(lane).next_u64())
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Multiply-shift: unbiased enough for n far below 2^32.
        #[allow(clippy::cast_possible_truncation)]
        let i = ((u128::from(self.next_u64()) * n as u128) >> 64) as usize;
        i
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A deck of `0..n` in which rank `r` appears in proportion to the
/// Zipf(`s`) weight `1/(r+1)^s` — about `size` cards in all, every rank
/// at least once. Drawing shuffled decks one after the other gives the
/// Zipf frequencies *exactly* per deck, whatever the seed: the seed
/// decides the order of requests, not how many of them are expensive.
pub fn zipf_deck(n: usize, s: f64, size: usize) -> Vec<u32> {
    let weight = |r: usize| 1.0 / ((r + 1) as f64).powf(s);
    let total: f64 = (0..n).map(weight).sum();
    let mut deck = Vec::with_capacity(size + n);
    for r in 0..n {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let copies = ((size as f64 * weight(r) / total).round() as usize).max(1);
        deck.extend(std::iter::repeat_n(r as u32, copies));
    }
    deck
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bits_and_lanes_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn lanes_are_not_shifted_copies_of_each_other() {
        // Seeds 2 and 8 share no bit with the generator's step, where
        // xor-ing a multiple of the step into the seed equals adding it.
        for seed in [1, 2, 7, 8, 10] {
            let draws = |lane, n| {
                let mut r = Rng::lane(seed, lane);
                (0..n).map(|_| r.next_u64()).collect::<Vec<_>>()
            };
            let (zero, one, two) = (draws(0, 64), draws(1, 64), draws(2, 64));
            for other in [&one, &two] {
                assert!(other[..8].iter().all(|v| !zero.contains(v)), "seed {seed}");
                assert!(zero[..8].iter().all(|v| !other.contains(v)), "seed {seed}");
            }
        }
    }

    #[test]
    fn below_stays_in_range_and_zipf_deck_follows_the_weights() {
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| r.below(13) < 13));
        let deck = zipf_deck(50, 1.0, 1_000);
        let copies = |rank: u32| deck.iter().filter(|&&c| c == rank).count();
        // H_50 ≈ 4.499: rank 0 gets 1000/4.499 ≈ 222 cards, rank 9 a tenth.
        assert_eq!((copies(0), copies(9), copies(49)), (222, 22, 4));
        assert!((990..=1_010).contains(&deck.len()), "{}", deck.len());
        // A long tail still shows up once per deck.
        assert_eq!(
            zipf_deck(500, 1.0, 100)
                .iter()
                .filter(|&&c| c == 499)
                .count(),
            1
        );
    }
}
