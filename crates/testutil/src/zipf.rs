//! Deterministic Zipf-distributed sampling for cache workloads.
//!
//! Real content popularity is heavy-tailed: a few catalog objects draw
//! most Interests while the long tail is touched rarely (the classic
//! web-cache observation). [`ZipfSampler`] draws ranks from
//! `P(k) ∝ 1 / (k+1)^s` over `n` items with a precomputed cumulative
//! table and binary search, so sampling is O(log n), allocation-free per
//! draw, and — seeded through the offline `rand` shim — bit-identical
//! across processes.

use rand::rngs::SmallRng;
use rand::Rng;

/// A Zipf(`s`) sampler over ranks `0..n` (rank 0 most popular).
///
/// # Examples
///
/// ```
/// use dapes_testutil::zipf::ZipfSampler;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let zipf = ZipfSampler::new(1000, 0.9);
/// let mut rng = SmallRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// `cdf[k]` = P(rank <= k); the last entry is exactly 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the cumulative table for `n` items with exponent `s`
    /// (`s = 0` is uniform; larger `s` concentrates mass on low ranks).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one item");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard the tail against rounding: a draw of exactly 1.0 cannot
        // happen (gen::<f64>() is [0,1)), but keep the invariant explicit.
        *cdf.last_mut().expect("nonempty") = 1.0;
        ZipfSampler { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is empty (never true: `new` requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..len()`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        // First rank whose cumulative mass exceeds the draw.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range_and_are_deterministic() {
        let zipf = ZipfSampler::new(100, 0.9);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..1000).map(|_| zipf.sample(&mut rng)).collect()
        };
        let a = draw(42);
        assert!(a.iter().all(|&r| r < 100));
        assert_eq!(a, draw(42), "same seed, same sequence");
        assert_ne!(a, draw(43), "different seed diverges");
    }

    #[test]
    fn higher_exponent_concentrates_mass_on_low_ranks() {
        let n = 1000;
        let head = |s: f64| -> usize {
            let zipf = ZipfSampler::new(n, s);
            let mut rng = SmallRng::seed_from_u64(7);
            (0..10_000)
                .filter(|_| zipf.sample(&mut rng) < n / 100)
                .count()
        };
        let uniform = head(0.0);
        let zipfian = head(1.2);
        assert!(
            zipfian > uniform * 5,
            "head mass: zipf {zipfian} vs uniform {uniform}"
        );
    }

    #[test]
    fn uniform_exponent_covers_the_whole_range() {
        let zipf = ZipfSampler::new(16, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[zipf.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&b| b), "every rank reachable");
    }

    #[test]
    fn single_item_always_samples_zero() {
        let zipf = ZipfSampler::new(1, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }
}
