//! Order-independent match-set digests.
//!
//! A match is identified by its signature: per pattern class, one 64-bit
//! key per bound event (see `workload::content_signature`). Each
//! signature hashes to 64 bits and a
//! set of matches folds to `(count, wrapping sum of hashes)` — independent
//! of the order shards, merge and emission produce them in, sensitive to
//! any missing, extra or altered match.

/// Count and digest of one query's matches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Matches seen.
    pub count: u64,
    /// Wrapping sum of the matches' signature hashes.
    pub digest: u64,
}

impl Tally {
    /// Adds one match by its signature.
    pub fn add(&mut self, signature: &[Vec<u64>]) {
        let mut h = 0x243f_6a88_85a3_08d3u64;
        for class in signature {
            h = mix(h ^ class.len() as u64);
            for &key in class {
                h = mix(h ^ key);
            }
        }
        self.count += 1;
        self.digest = self.digest.wrapping_add(mix(h));
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = vec![vec![1u64], vec![2, 3]];
        let b = vec![vec![4u64], vec![5]];
        let (mut x, mut y) = (Tally::default(), Tally::default());
        x.add(&a);
        x.add(&b);
        y.add(&b);
        y.add(&a);
        assert_eq!(x, y);
        let mut z = Tally::default();
        z.add(&a);
        z.add(&[vec![4u64], vec![6]]);
        assert_eq!(z.count, x.count);
        assert_ne!(z.digest, x.digest);
        // Moving an event between classes changes the signature.
        let mut w = Tally::default();
        w.add(&[vec![1u64, 2], vec![3]]);
        let mut v = Tally::default();
        v.add(&a);
        assert_ne!(w.digest, v.digest);
    }
}
