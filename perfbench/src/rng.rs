//! Seeded randomness for request streams.
//!
//! The benchmark owns its generator (SplitMix64) instead of borrowing the
//! repository's `rand` stand-in, so a change to that crate cannot change
//! the streams a seed produces.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// An independent generator for one named sub-stream of `seed`.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut base = Rng::new(seed);
        let salt = base.next_u64();
        Rng::new(salt ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// An exponential gap with the given mean (the Poisson process's
    /// inter-arrival time).
    pub fn exp_gap(&mut self, mean: f64) -> f64 {
        // Offset off zero so ln() stays finite.
        let uniform = ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        -uniform.ln() * mean
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF: rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(64, 1.2);
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[8]);
        assert!(counts[0] > 20_000 / 5, "rank 0 carries a large share");
    }

    #[test]
    fn derived_streams_differ() {
        let a = Rng::derive(1, 0).next_u64();
        let b = Rng::derive(1, 1).next_u64();
        let c = Rng::derive(2, 0).next_u64();
        assert!(a != b && a != c);
        assert_eq!(a, Rng::derive(1, 0).next_u64());
    }
}
