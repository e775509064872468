//! Seeded SplitMix64 pseudo-random generator.
//!
//! Replaces the `rand` crate (unavailable offline) for the synthetic
//! memory-request generator and the randomized property tests. SplitMix64
//! passes BigCrush, needs no state beyond one `u64`, and is trivially
//! reproducible: the same seed always yields the same stream on every
//! platform.
//!
//! ```
//! use pi3d_telemetry::rng::SplitMix64;
//!
//! let mut a = SplitMix64::new(42);
//! let mut b = SplitMix64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let p = a.next_f64();
//! assert!((0.0..1.0).contains(&p));
//! ```

use std::time::Duration;

/// SplitMix64 generator state (Steele, Lea & Flood 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds give equal streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift reduction without the rejection step;
    /// the bias is < 2⁻³² for the small bounds used here (row counts,
    /// die counts).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be nonzero");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform draw from `[lo, hi)`; the range must be nonempty.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "range [{lo}, {hi}) is empty");
        lo + self.next_below(hi - lo)
    }

    /// Uniform draw from `[lo, hi)` over floats.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Seeded jittered exponential backoff before retry `attempt` (0-based):
/// `base · 2^min(attempt, max_doublings) · (0.5 + 0.5·r)` with `r` drawn
/// from `rng`, so a fleet of retrying clients (or respawning workers)
/// spreads out instead of thundering back in lockstep.
pub fn jittered_backoff(
    base: Duration,
    attempt: u32,
    max_doublings: u32,
    rng: &mut SplitMix64,
) -> Duration {
    let jitter = 0.5 + 0.5 * rng.next_f64();
    base.saturating_mul(2u32.saturating_pow(attempt.min(max_doublings)))
        .mul_f64(jitter)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = SplitMix64::new(0x0003_dd2a_2015);
        let mut b = SplitMix64::new(0x0003_dd2a_2015);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_first_output_for_seed_zero() {
        // Reference value from the published SplitMix64 algorithm.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn f64_draws_stay_in_unit_interval_and_vary() {
        let mut rng = SplitMix64::new(7);
        let draws: Vec<f64> = (0..1000).map(|_| rng.next_f64()).collect();
        assert!(draws.iter().all(|p| (0.0..1.0).contains(p)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((0.4..0.6).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..500 {
            let v = rng.range(0, 8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_tracks_probability() {
        let mut rng = SplitMix64::new(13);
        let hits = (0..10_000).filter(|_| rng.chance(0.8)).count();
        assert!((7_600..8_400).contains(&hits), "hits {hits}");
    }

    #[test]
    fn jittered_backoff_is_seeded_and_bounded() {
        let base = Duration::from_millis(100);
        for max_doublings in [6, 10] {
            let mut a = SplitMix64::new(7);
            let mut b = SplitMix64::new(7);
            for attempt in 0..14 {
                let da = jittered_backoff(base, attempt, max_doublings, &mut a);
                let db = jittered_backoff(base, attempt, max_doublings, &mut b);
                assert_eq!(da, db, "same seed, same jitter");
                let cap = base * (1 << attempt.min(max_doublings));
                assert!(da >= cap / 2 && da <= cap, "attempt {attempt}: {da:?}");
            }
        }
    }
}
