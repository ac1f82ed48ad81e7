//! Deterministic, splittable randomness for the simulator.
//!
//! Every experiment in the paper reproduction is driven by a single `u64`
//! seed. Subsystems (population generator, churn model, tunnel peer
//! selection, transport jitter, …) each get their own [`DetRng`] stream via
//! [`DetRng::fork`], so adding randomness consumption in one subsystem
//! never perturbs another — a property the calibration constants in
//! `i2p_sim::params` rely on.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, both
//! implemented here (public-domain algorithms by Blackman & Vigna).

/// SplitMix64's state increment.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 step; used for seeding and forking.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    splitmix_mix(*state)
}

/// SplitMix64's output function.
#[inline]
fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Word `k` (1-based) of the SplitMix64 stream started at `seed`: the
/// `k`-th [`splitmix64`] output, without the `k - 1` before it.
#[inline]
fn splitmix_word(seed: u64, k: u64) -> u64 {
    splitmix_mix(seed.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(k)))
}

/// A deterministic xoshiro256++ random-number generator.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    #[inline]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// The first two outputs of `DetRng::new(seed)`. Neither reads the
    /// third SplitMix64 seed word (`s[2]` first reaches the third
    /// output), so three of the four are computed; a caller that uses
    /// only the first output leaves the compiler one more to drop.
    /// Keyed draws that need at most two uniforms per seed run on this
    /// instead of building a generator.
    #[inline]
    pub fn first_two_outputs(seed: u64) -> (u64, u64) {
        let (s0, s1) = (splitmix_word(seed, 1), splitmix_word(seed, 2));
        let s3 = splitmix_word(seed, 4);
        let first = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        // One `next_u64` step, keeping only the words the second output
        // reads: s[0] becomes s0 ^ s1 ^ s3 and s[3] (s3 ^ s1) <<< 45.
        let mixed = s3 ^ s1;
        let s0 = s0 ^ mixed;
        let second = s0.wrapping_add(mixed.rotate_left(45)).rotate_left(23).wrapping_add(s0);
        (first, second)
    }

    /// Derives an independent child stream labelled by `label`.
    ///
    /// Forking is stable: the child depends only on the parent's *seed
    /// material*, not on how much the parent has been used — callers fork
    /// all subsystem streams up front from a root RNG.
    #[inline]
    pub fn fork(&self, label: u64) -> Self {
        // Mix the label into the state through SplitMix64 so that labels
        // 0,1,2,… yield well-separated streams.
        let mut sm = self.s[0] ^ self.s[2] ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's method; `bound > 0`).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection-free for simulation purposes: 128-bit multiply-shift.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given `mean`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.next_f64().max(1e-15);
        -mean * u.ln()
    }

    /// Weibull-distributed value with shape `k` and scale `lambda`.
    ///
    /// The churn model (Hoang et al. §5.2.1) uses Weibull peer-longevity
    /// distributions; see `i2p-sim/src/params.rs` for the fitted
    /// parameters.
    pub fn weibull(&mut self, shape: f64, scale: f64) -> f64 {
        let u = self.next_f64().max(1e-15);
        scale * (-u.ln()).powf(1.0 / shape)
    }

    /// Log-normal with parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Standard normal via Box–Muller (one value; the pair's twin is
    /// discarded for simplicity).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-15);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// Poisson-distributed count with the given `mean` (Knuth for small
    /// means, normal approximation above 30 to stay O(1)).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 30.0 {
            let v = mean + mean.sqrt() * self.standard_normal();
            return v.max(0.0).round() as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Gamma-distributed value with the given `shape` and `scale`
    /// (Marsaglia–Tsang, with the standard `shape < 1` boost). The
    /// observation model draws per-peer visibility weights from a Gamma
    /// distribution (see `i2p-sim/src/params.rs`).
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        if shape < 1.0 {
            let u = self.next_f64().max(1e-15);
            return self.gamma(shape + 1.0, scale) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.next_f64().max(1e-15);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v * scale;
            }
        }
    }

    /// Zipf-like rank sampler over `n` items with exponent `s`:
    /// `P(rank=k) ∝ 1/(k+1)^s`. Used by the geography model for the long
    /// tail of countries/ASes.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        debug_assert!(n > 0);
        // Inverse-CDF on a precomputable-but-small harmonic sum; n is at
        // most a few hundred in our models, so a linear scan is fine.
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut u = self.next_f64() * norm;
        for k in 1..=n {
            u -= 1.0 / (k as f64).powf(s);
            if u <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (floyd's algorithm when
    /// k << n, shuffle otherwise).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        if k * 4 >= n {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            return all;
        }
        let mut chosen = std::collections::HashSet::with_capacity(k); // i2plint: allow(nondet-hash) -- membership-only scratch set; iteration order is never observed
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.below(j as u64 + 1) as usize;
            let pick = if chosen.contains(&t) { j } else { t };
            chosen.insert(pick);
            out.push(pick);
        }
        out
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn first_two_outputs_match_the_generator() {
        let mut seeds = DetRng::new(31);
        let edges = [0, 1, u64::MAX, SPLITMIX_GAMMA];
        for seed in edges.into_iter().chain((0..1000).map(|_| seeds.next_u64())) {
            let mut r = DetRng::new(seed);
            let (first, second) = (r.next_u64(), r.next_u64());
            assert_eq!(DetRng::first_two_outputs(seed), (first, second), "seed {seed:#x}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_under_parent_use() {
        let parent = DetRng::new(7);
        let mut used = parent.clone();
        for _ in 0..10 {
            used.next_u64();
        }
        // fork depends on seed material only, so forking before/after use
        // of a *clone* is identical; (the parent itself is not mutated by
        // fork).
        let mut c1 = parent.fork(3);
        let mut c2 = parent.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent.fork(4);
        assert_ne!(parent.fork(3).next_u64(), c3.next_u64());
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = DetRng::new(9);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            let v = r.below(10) as usize;
            counts[v] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "bucket count {c} out of tolerance");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn weibull_median_close() {
        // Median of Weibull(k, λ) is λ·ln(2)^(1/k).
        let mut r = DetRng::new(13);
        let (k, lam) = (0.7086, 15.34);
        let mut v: Vec<f64> = (0..10_001).map(|_| r.weibull(k, lam)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = v[5000];
        let expected = lam * (2.0f64.ln()).powf(1.0 / k);
        assert!((med - expected).abs() / expected < 0.05, "median {med} vs {expected}");
    }

    #[test]
    fn poisson_mean_close() {
        let mut r = DetRng::new(17);
        for mean in [0.5, 4.0, 50.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| r.poisson(mean)).sum();
            let got = sum as f64 / n as f64;
            assert!((got - mean).abs() / mean < 0.05, "mean {mean} got {got}");
        }
    }

    #[test]
    fn gamma_mean_and_variance_close() {
        let mut r = DetRng::new(19);
        for (k, theta) in [(0.5, 2.0), (2.0, 1.0), (9.0, 0.5)] {
            let n = 30_000;
            let v: Vec<f64> = (0..n).map(|_| r.gamma(k, theta)).collect();
            let mean: f64 = v.iter().sum::<f64>() / n as f64;
            let var: f64 = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            let (em, ev) = (k * theta, k * theta * theta);
            assert!((mean - em).abs() / em < 0.05, "gamma({k},{theta}) mean {mean}");
            assert!((var - ev).abs() / ev < 0.15, "gamma({k},{theta}) var {var}");
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = DetRng::new(21);
        for (n, k) in [(10usize, 10usize), (1000, 5), (50, 25)] {
            let s = r.sample_indices(n, k);
            assert_eq!(s.len(), k.min(n));
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), s.len());
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut r = DetRng::new(23);
        let mut counts = [0u32; 5];
        for _ in 0..10_000 {
            counts[r.zipf(5, 1.0)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
