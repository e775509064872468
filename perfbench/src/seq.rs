//! Seeded op sequences. The seed is a benchmark argument and fixes the
//! `dse` op order, the `fine-mg` load-vector order and the `serve-mixed`
//! mix; the program only ever sees the generated inputs.

use pi3d_telemetry::rng::SplitMix64;

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// `n` indices into `0..len`: back-to-back seeded permutations of the
/// whole range, so every item recurs equally often. A permutation never
/// starts with the item that ended the previous one.
pub fn cycled_order(seed: u64, len: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n + len);
    while out.len() < n {
        let mut perm: Vec<usize> = (0..len).collect();
        shuffle(&mut rng, &mut perm);
        if len > 1 && out.last() == perm.first() {
            perm.swap(0, 1);
        }
        out.extend(perm);
    }
    out.truncate(n);
    out
}

/// One `serve-mixed` request. Indices point into the config tables of
/// `serve.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServeOp {
    /// `simulate` on a hot (cached) design.
    WarmSimulate {
        hot: usize,
        policy: usize,
        constraint: usize,
    },
    /// `solve` on a hot (cached) design.
    WarmSolve { hot: usize, state: usize },
    /// `simulate` on a design that is not cached: builds mesh,
    /// factorization and LUT, inserts them and evicts the previous cold
    /// design.
    ColdSimulate { cold: usize },
}

impl ServeOp {
    pub fn is_cold(self) -> bool {
        matches!(self, ServeOp::ColdSimulate { .. })
    }
}

/// Shape of the `serve-mixed` config space.
#[derive(Debug, Clone, Copy)]
pub struct MixShape {
    pub hot: usize,
    pub policies: usize,
    pub constraints: usize,
    pub states: usize,
    pub cold: usize,
}

/// Ops per segment: one warm `simulate` per hot design, one warm `solve`,
/// then one cold `simulate`.
pub const fn segment_len(shape: &MixShape) -> usize {
    shape.hot + 2
}

/// The `serve-mixed` request sequence. Each segment sends one warm
/// `simulate` to every hot design (seeded policy and constraint) and one
/// warm `solve` (seeded design and state) in seeded order, then one cold
/// `simulate`. Every hot cache entry is thus touched between two cold
/// requests, so the LRU always evicts the previous cold design and never
/// a hot one: one request in `hot + 2` misses.
pub fn serve_mix(seed: u64, shape: &MixShape, n: usize) -> Vec<ServeOp> {
    let mut rng = SplitMix64::new(seed ^ 0x5e12_7e00_0000_0000);
    let segments = n.div_ceil(segment_len(shape));
    let colds = cycled_order(seed.wrapping_add(1), shape.cold, segments);
    let mut out = Vec::with_capacity(segments * segment_len(shape));
    for cold in colds {
        let mut warm: Vec<ServeOp> = (0..shape.hot)
            .map(|hot| ServeOp::WarmSimulate {
                hot,
                policy: rng.next_below(shape.policies as u64) as usize,
                constraint: rng.next_below(shape.constraints as u64) as usize,
            })
            .collect();
        warm.push(ServeOp::WarmSolve {
            hot: rng.next_below(shape.hot as u64) as usize,
            state: rng.next_below(shape.states as u64) as usize,
        });
        shuffle(&mut rng, &mut warm);
        out.extend(warm);
        out.push(ServeOp::ColdSimulate { cold });
    }
    out.truncate(n);
    out
}

/// A cache artifact the serve engine keys separately: a prepared design
/// or its IR LUT, of a hot or a cold config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    HotDesign(usize),
    HotLut(usize),
    ColdDesign(usize),
    ColdLut(usize),
}

/// Cache keys one request touches, in lookup order.
pub fn touches(op: ServeOp) -> Vec<Artifact> {
    match op {
        ServeOp::WarmSimulate { hot, .. } => vec![Artifact::HotDesign(hot), Artifact::HotLut(hot)],
        ServeOp::WarmSolve { hot, .. } => vec![Artifact::HotDesign(hot)],
        ServeOp::ColdSimulate { cold } => vec![Artifact::ColdDesign(cold), Artifact::ColdLut(cold)],
    }
}

/// Cache counts as the serve engine's `stats` reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A model of the engine's size-accounted LRU: a hit moves the entry to
/// the back; a miss appends it and evicts from the front while over
/// budget, always keeping the newest entry.
#[derive(Debug)]
pub struct LruModel {
    budget: usize,
    entries: Vec<(Artifact, usize)>,
    bytes: usize,
    pub counts: CacheCounts,
}

impl LruModel {
    pub fn new(budget: usize) -> LruModel {
        LruModel {
            budget,
            entries: Vec::new(),
            bytes: 0,
            counts: CacheCounts::default(),
        }
    }

    /// Looks `key` up; returns whether it hit.
    pub fn touch(&mut self, key: Artifact, size: usize) -> bool {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
            self.counts.hits += 1;
            return true;
        }
        self.counts.misses += 1;
        self.entries.push((key, size));
        self.bytes += size;
        while self.bytes > self.budget && self.entries.len() > 1 {
            let (_, b) = self.entries.remove(0);
            self.bytes -= b;
            self.counts.evictions += 1;
        }
        false
    }
}

/// The daemon's `--cache-bytes`: the hot set plus one cold design and
/// two LUTs, plus half a cold design of slack. A second cold design never
/// fits, so each cold insert evicts the previous cold design first.
pub fn cache_budget(hot_bytes: usize, cold_design: usize, cold_lut: usize) -> usize {
    hot_bytes + cold_design + 2 * cold_lut + cold_design / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rank;

    const SHAPE: MixShape = MixShape {
        hot: 4,
        policies: 3,
        constraints: 2,
        states: 4,
        cold: 8,
    };

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(cycled_order(7, 4320, 500), cycled_order(7, 4320, 500));
        assert_ne!(cycled_order(7, 4320, 500), cycled_order(8, 4320, 500));
        assert_eq!(cycled_order(3, 24, 100), cycled_order(3, 24, 100));
        assert_ne!(cycled_order(3, 24, 100), cycled_order(4, 24, 100));
        assert_eq!(serve_mix(1, &SHAPE, 600), serve_mix(1, &SHAPE, 600));
        assert_ne!(serve_mix(1, &SHAPE, 600), serve_mix(2, &SHAPE, 600));
    }

    #[test]
    fn cycled_order_visits_every_item_equally_and_never_repeats_back_to_back() {
        let order = cycled_order(11, 24, 24 * 5);
        for item in 0..24 {
            assert_eq!(order.iter().filter(|&&i| i == item).count(), 5);
        }
        assert!(order.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn serve_mix_has_a_fixed_miss_share_and_clear_percentile_margins() {
        for seed in 0..20 {
            let ops = serve_mix(seed, &SHAPE, 2000);
            let cold = ops.iter().filter(|o| o.is_cold()).count() as f64;
            let share = cold / ops.len() as f64;
            assert!((0.15..=0.20).contains(&share), "miss share {share}");
            // Any run length from the 100-op minimum up: p50 must fall in
            // the warm ranks and p90 in the cold ranks, 5 points clear.
            for n in 100..ops.len() {
                let warm = ops[..n].iter().filter(|o| !o.is_cold()).count();
                let boundary = 100.0 * warm as f64 / n as f64;
                let p50 = 100.0 * rank(n, 50.0) as f64 / n as f64;
                let p90 = 100.0 * rank(n, 90.0) as f64 / n as f64;
                assert!(
                    boundary - p50 >= 5.0,
                    "n={n}: p50 margin {}",
                    boundary - p50
                );
                assert!(
                    p90 - boundary >= 5.0,
                    "n={n}: p90 margin {}",
                    p90 - boundary
                );
            }
        }
    }

    #[test]
    fn lru_model_hits_every_warm_op_and_misses_every_cold_op() {
        // Representative sizes: designs of tens of MB, LUTs of tens of kB.
        let hot_design = [3_000_000, 3_500_000, 4_000_000, 9_000_000];
        let hot_lut = [30_000, 30_000, 40_000, 60_000];
        let (cold_design, cold_lut) = (3_200_000, 30_000);
        let hot: usize = hot_design.iter().sum::<usize>() + hot_lut.iter().sum::<usize>();
        let mut lru = LruModel::new(cache_budget(hot, cold_design, cold_lut));
        let size = |a: Artifact| match a {
            Artifact::HotDesign(h) => hot_design[h],
            Artifact::HotLut(h) => hot_lut[h],
            Artifact::ColdDesign(_) => cold_design,
            Artifact::ColdLut(_) => cold_lut,
        };
        for h in 0..4 {
            for a in touches(ServeOp::WarmSimulate {
                hot: h,
                policy: 0,
                constraint: 0,
            }) {
                lru.touch(a, size(a));
            }
        }
        let ops = serve_mix(5, &SHAPE, 3000);
        for op in &ops {
            for a in touches(*op) {
                assert_eq!(lru.touch(a, size(a)), !op.is_cold(), "{op:?} {a:?}");
            }
        }
        let colds = ops.iter().filter(|o| o.is_cold()).count() as u64;
        assert_eq!(lru.counts.misses, 8 + 2 * colds);
        // The first cold design evicts nothing; later ones evict their
        // predecessor's design, and one LUT lingers a round.
        assert_eq!(lru.counts.evictions, 2 * colds - 3);
    }
}
