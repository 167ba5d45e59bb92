//! Everything random comes from `--seed` through this generator; the
//! library only ever sees the generated inputs.

/// SplitMix64: small, fast, and good enough to decorrelate payloads,
/// orders and displacements.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for one named stream of the run's seed, so that two
    /// ranks derive the same inputs without exchanging them.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The 8-byte payload of message `index` of `stream` in batch `batch`:
/// distinct per message and per batch, so a stale or misrouted buffer
/// cannot pass the comparison.
pub fn word(seed: u64, stream: u64, index: u64, batch: u64) -> u64 {
    mix(seed ^ mix(stream << 32 | index)).wrapping_add(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(Rng::new(7, 1).bytes(100), Rng::new(7, 1).bytes(100));
        assert_ne!(Rng::new(7, 1).bytes(100), Rng::new(8, 1).bytes(100));
        assert_ne!(Rng::new(7, 1).bytes(100), Rng::new(7, 2).bytes(100));
        assert_ne!(word(7, 1, 2, 3), word(7, 1, 2, 4));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..48).collect();
        Rng::new(1, 1).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
