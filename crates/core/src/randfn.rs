//! The fixed random function `f` of `PhaseAsyncLead` (paper Section 6).
//!
//! The paper defines `f : [n]^n × [m]^{n−l} → [n]` as a *uniformly random
//! function*, fixed once and for all as part of the protocol, and proves
//! that with exponentially high probability over the choice of `f` the
//! protocol is `ε`-`k`-unbiased. Storing a genuinely random table of size
//! `n^n · m^{n−l}` is impossible, so this reproduction substitutes a keyed
//! pseudorandom function built from the SplitMix64 finalizer — see
//! DESIGN.md §4 for why this preserves the behaviour the resilience proof
//! relies on (the adversary can evaluate `f` but cannot invert it or
//! predict it from partial inputs).

use ring_sim::rng::mix;

/// A keyed pseudorandom function standing in for the paper's random `f`.
///
/// Two instances with the same key and range compute the same function;
/// different keys give (empirically) independent functions — the
/// experiments' analogue of "with high probability over randomizing `f`".
///
/// # Examples
///
/// ```
/// use fle_core::RandomFn;
///
/// let f = RandomFn::new(42, 16);
/// let y = f.eval(&[1, 2, 3], &[4, 5]);
/// assert!(y < 16);
/// assert_eq!(y, RandomFn::new(42, 16).eval(&[1, 2, 3], &[4, 5]));
///
/// // Different keys give (empirically) independent functions: over many
/// // inputs the two functions must disagree somewhere.
/// let g = RandomFn::new(43, 16);
/// assert!((0..64).any(|x| f.eval(&[x], &[]) != g.eval(&[x], &[])));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomFn {
    key: u64,
    range: u64,
}

// Domain-separation constants (random 64-bit values).
const DOMAIN_INIT: u64 = 0x5bd1_e995_9d1d_b3c9;
const DOMAIN_DATA: u64 = 0x27d4_eb2f_1656_67c5;
const DOMAIN_VALS: u64 = 0x1656_67b1_9e37_79f9;

impl RandomFn {
    /// Creates the function with the given key and output range `[0, range)`.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0`.
    pub fn new(key: u64, range: u64) -> Self {
        assert!(range > 0, "range must be positive");
        Self { key, range }
    }

    /// The output range bound `n`.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// The key identifying this instance of `f`.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Evaluates `f(data, vals)`.
    ///
    /// `data` plays the role of the `n` data values `d̂_1..d̂_n`, `vals` the
    /// first `n − l` validation values; both are absorbed
    /// position-dependently so that permuting the input changes the output.
    pub fn eval(&self, data: &[u64], vals: &[u64]) -> u64 {
        let mut h = mix(self.key ^ DOMAIN_INIT);
        h = mix(h ^ (data.len() as u64).wrapping_mul(DOMAIN_DATA));
        for (i, &x) in data.iter().enumerate() {
            h = mix(h ^ mix(x ^ (i as u64).wrapping_mul(DOMAIN_DATA)));
        }
        h = mix(h ^ (vals.len() as u64).wrapping_mul(DOMAIN_VALS));
        for (i, &x) in vals.iter().enumerate() {
            h = mix(h ^ mix(x ^ (i as u64).wrapping_mul(DOMAIN_VALS)));
        }
        h % self.range
    }
}

/// A precomputed evaluation table for [`RandomFn`] at one fixed input
/// shape `(data_len, vals_len)`.
///
/// [`RandomFn::eval`] recomputes the key/length absorption prefix and the
/// per-position domain-separation terms on every call. Within one sweep
/// configuration those are constants — every honest trial of a
/// `(protocol, n)` pair evaluates `f` on the same shape — so the batched
/// engine hoists them once per configuration and evaluates lanes with
/// [`EvalTable::eval_strided`] straight out of slot-major
/// structure-of-arrays storage, no gather copy required.
///
/// Produces bit-identical results to [`RandomFn::eval`] for the shape it
/// was built for.
#[derive(Debug, Clone)]
pub struct EvalTable {
    /// Hash state after absorbing the key and the `data` length term.
    prefix: u64,
    /// `data_pos[i] = i · DOMAIN_DATA` — the position term of `data[i]`.
    data_pos: Vec<u64>,
    /// The `vals` length absorption term.
    vals_len_term: u64,
    /// `vals_pos[i] = i · DOMAIN_VALS` — the position term of `vals[i]`.
    vals_pos: Vec<u64>,
    range: u64,
}

impl EvalTable {
    /// Precomputes the table of `f` for inputs of exactly `data_len` data
    /// values and `vals_len` validation values.
    pub fn new(f: &RandomFn, data_len: usize, vals_len: usize) -> Self {
        let mut prefix = mix(f.key ^ DOMAIN_INIT);
        prefix = mix(prefix ^ (data_len as u64).wrapping_mul(DOMAIN_DATA));
        Self {
            prefix,
            data_pos: (0..data_len as u64)
                .map(|i| i.wrapping_mul(DOMAIN_DATA))
                .collect(),
            vals_len_term: (vals_len as u64).wrapping_mul(DOMAIN_VALS),
            vals_pos: (0..vals_len as u64)
                .map(|i| i.wrapping_mul(DOMAIN_VALS))
                .collect(),
            range: f.range,
        }
    }

    /// Evaluates `f` for one lane of slot-major storage: the `i`-th data
    /// value is `data[i * stride + lane]` and the `i`-th validation value
    /// is `vals[i * stride + lane]`.
    ///
    /// Equals `RandomFn::eval` on the gathered inputs.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if the slices are shorter than the
    /// table's shape requires, or if `lane >= stride`.
    pub fn eval_strided(&self, data: &[u64], vals: &[u64], stride: usize, lane: usize) -> u64 {
        assert!(lane < stride, "lane {lane} out of stride {stride}");
        let mut h = self.prefix;
        for (i, &pos) in self.data_pos.iter().enumerate() {
            h = mix(h ^ mix(data[i * stride + lane] ^ pos));
        }
        h = mix(h ^ self.vals_len_term);
        for (i, &pos) in self.vals_pos.iter().enumerate() {
            h = mix(h ^ mix(vals[i * stride + lane] ^ pos));
        }
        h % self.range
    }
}

/// [`RandomFn::eval`] hoisted for a search over inputs that agree
/// everywhere except at a few *free* data positions — the preimage search
/// of the phase-rushing adversary — for one or several independent lanes
/// at once.
///
/// [`HoistedEval::prepare_lane`] absorbs the key, the lengths and every
/// data entry before the first free position once, and precomputes the
/// absorbed term `mix(x ^ pos)` of every later fixed entry and of every
/// validation value. [`HoistedEval::eval_lanes`] then only mixes the free
/// entries and runs the remaining hash chain, interleaving the chains of
/// the lanes it evaluates so they overlap in the pipeline. Bit-identical
/// to [`RandomFn::eval`] on the same full input. The buffers are reused
/// across searches.
#[derive(Debug, Clone, Default)]
pub struct HoistedEval {
    lanes: usize,
    /// The first free data position.
    start: usize,
    /// Per lane: the hash state after absorbing everything before
    /// `start`.
    heads: Vec<u64>,
    /// Absorbed terms of data positions `start..`, slot-major
    /// (`[(i − start) · lanes + lane]`); free positions are overwritten
    /// by each evaluation.
    terms: Vec<u64>,
    /// The free data positions, in the order evaluations take their
    /// values.
    free: Vec<usize>,
    /// The validation-length term followed by the absorbed validation
    /// terms, slot-major.
    vals_terms: Vec<u64>,
    /// Scratch hash states of the lanes being evaluated.
    chains: Vec<u64>,
    key: u64,
    range: u64,
}

impl HoistedEval {
    /// Starts a search over `lanes` inputs of `data_len` data and
    /// `vals_len` validation values that are free at the data positions
    /// `free`. Every lane must then be absorbed with
    /// [`HoistedEval::prepare_lane`].
    ///
    /// # Panics
    ///
    /// Panics if `free` is empty or names a position `>= data_len`.
    pub fn reset(
        &mut self,
        f: &RandomFn,
        lanes: usize,
        data_len: usize,
        vals_len: usize,
        free: &[usize],
    ) {
        let start = *free.iter().min().expect("at least one free position");
        assert!(
            free.iter().all(|&i| i < data_len),
            "free position out of range"
        );
        self.lanes = lanes;
        self.start = start;
        self.heads.clear();
        self.heads.resize(lanes, 0);
        self.terms.clear();
        self.terms.resize((data_len - start) * lanes, 0);
        self.free.clear();
        self.free.extend_from_slice(free);
        self.vals_terms.clear();
        self.vals_terms.resize((1 + vals_len) * lanes, 0);
        self.key = f.key;
        self.range = f.range;
    }

    /// Absorbs lane `lane`'s fixed input `(data, vals)` (its entries at
    /// the free positions are ignored).
    ///
    /// # Panics
    ///
    /// Panics if the input shape differs from the one given to
    /// [`HoistedEval::reset`] or `lane` is out of range.
    pub fn prepare_lane(&mut self, lane: usize, data: &[u64], vals: &[u64]) {
        let (lanes, start) = (self.lanes, self.start);
        assert!(lane < lanes, "lane {lane} out of range");
        assert_eq!(
            self.terms.len(),
            (data.len() - start) * lanes,
            "data length"
        );
        assert_eq!(
            self.vals_terms.len(),
            (1 + vals.len()) * lanes,
            "vals length"
        );
        let mut h = mix(self.key ^ DOMAIN_INIT);
        h = mix(h ^ (data.len() as u64).wrapping_mul(DOMAIN_DATA));
        for (i, &x) in data[..start].iter().enumerate() {
            h = mix(h ^ mix(x ^ (i as u64).wrapping_mul(DOMAIN_DATA)));
        }
        self.heads[lane] = h;
        for (i, &x) in data.iter().enumerate().skip(start) {
            self.terms[(i - start) * lanes + lane] = mix(x ^ (i as u64).wrapping_mul(DOMAIN_DATA));
        }
        self.vals_terms[lane] = (vals.len() as u64).wrapping_mul(DOMAIN_VALS);
        for (i, &x) in vals.iter().enumerate() {
            self.vals_terms[(i + 1) * lanes + lane] = mix(x ^ (i as u64).wrapping_mul(DOMAIN_VALS));
        }
    }

    /// Evaluates `f` for the lanes `which`: lane `which[a]` takes
    /// `free_vals[a · F + j]` at free position `j` (`F` free positions),
    /// and its output lands in `out[a]`.
    ///
    /// # Panics
    ///
    /// Panics if `free_vals` holds fewer than `F` values per lane or a
    /// lane is out of range.
    pub fn eval_lanes(&mut self, which: &[usize], free_vals: &[u64], out: &mut Vec<u64>) {
        let (lanes, start, nf) = (self.lanes, self.start, self.free.len());
        assert!(
            free_vals.len() >= which.len() * nf,
            "one value per free slot"
        );
        for (a, &lane) in which.iter().enumerate() {
            for (&i, &x) in self.free.iter().zip(&free_vals[a * nf..]) {
                self.terms[(i - start) * lanes + lane] =
                    mix(x ^ (i as u64).wrapping_mul(DOMAIN_DATA));
            }
        }
        out.clear();
        if let [lane] = *which {
            // One chain: keep its state in a register.
            let mut h = self.heads[lane];
            for row in self.terms.chunks_exact(lanes) {
                h = mix(h ^ row[lane]);
            }
            for row in self.vals_terms.chunks_exact(lanes) {
                h = mix(h ^ row[lane]);
            }
            out.push(self.reduce(h));
            return;
        }
        self.chains.clear();
        self.chains
            .extend(which.iter().map(|&lane| self.heads[lane]));
        for row in self.terms.chunks_exact(lanes) {
            for (h, &lane) in self.chains.iter_mut().zip(which) {
                *h = mix(*h ^ row[lane]);
            }
        }
        for row in self.vals_terms.chunks_exact(lanes) {
            for (h, &lane) in self.chains.iter_mut().zip(which) {
                *h = mix(*h ^ row[lane]);
            }
        }
        out.extend(self.chains.iter().map(|&h| self.reduce(h)));
    }

    /// `h % range`, masked when the range is a power of two.
    fn reduce(&self, h: u64) -> u64 {
        if self.range.is_power_of_two() {
            h & (self.range - 1)
        } else {
            h % self.range
        }
    }
}

/// Parameters of the phase-validation protocol family, derived from `n`
/// (paper Section 6): `m = 2n²` and `l = ⌈10√n⌉`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseParams {
    /// Ring size.
    pub n: usize,
    /// Validation-value range `m = 2n²`.
    pub m: u64,
    /// The cutoff `l = ⌈10√n⌉`: only validation values of rounds
    /// `1..=n−l` enter `f`.
    pub l: usize,
}

impl PhaseParams {
    /// Derives the parameters for a ring of `n` processors.
    ///
    /// For small `n` where `⌈10√n⌉ ≥ n`, `l` is clamped to `n − 1` so at
    /// least one validation round feeds `f`; the paper's analysis assumes
    /// `n` large enough that `l ≤ n/k`, and the experiments report both
    /// regimes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn for_ring(n: usize) -> Self {
        assert!(n >= 2, "phase protocols need n >= 2");
        let l = ((10.0 * (n as f64).sqrt()).ceil() as usize).min(n - 1);
        Self {
            n,
            m: 2 * (n as u64) * (n as u64),
            l,
        }
    }

    /// Number of validation rounds whose values feed `f`: `n − l`.
    pub fn vals_in_f(&self) -> usize {
        self.n - self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let f = RandomFn::new(7, 13);
        for i in 0..100u64 {
            let y = f.eval(&[i, i + 1], &[i * 3]);
            assert!(y < 13);
            assert_eq!(y, f.eval(&[i, i + 1], &[i * 3]));
        }
    }

    #[test]
    fn position_dependent() {
        let f = RandomFn::new(7, 1 << 30);
        assert_ne!(f.eval(&[1, 2], &[]), f.eval(&[2, 1], &[]));
        assert_ne!(f.eval(&[1], &[2]), f.eval(&[2], &[1]));
        assert_ne!(f.eval(&[1, 2], &[]), f.eval(&[1], &[2]));
    }

    #[test]
    fn output_roughly_uniform_over_inputs() {
        let n = 16u64;
        let f = RandomFn::new(99, n);
        let mut counts = vec![0u32; n as usize];
        let trials = 64_000u64;
        for x in 0..trials {
            counts[f.eval(&[x, x * x], &[x ^ 0xabc]) as usize] += 1;
        }
        let expect = (trials / n) as f64;
        for &c in &counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.1, "bucket deviation {dev}");
        }
    }

    #[test]
    fn single_entry_change_flips_output_often() {
        // The core property the resilience proof needs: changing one input
        // coordinate re-randomizes the output.
        let n = 64u64;
        let f = RandomFn::new(3, n);
        let mut changed = 0u64;
        let trials = 2000u64;
        for x in 0..trials {
            let base = f.eval(&[x, 5, 9], &[7]);
            let tweak = f.eval(&[x, 6, 9], &[7]);
            if base != tweak {
                changed += 1;
            }
        }
        // Expected collisions ≈ trials/n ≈ 31; require most to change.
        assert!(changed > trials - 3 * trials / n - 30);
    }

    #[test]
    fn phase_params_formulas() {
        let p = PhaseParams::for_ring(100);
        assert_eq!(p.m, 20_000);
        assert_eq!(p.l, 100 - 1); // ⌈10·√100⌉ = 100 clamps to n−1
        let p = PhaseParams::for_ring(10_000);
        assert_eq!(p.l, 1000);
        assert_eq!(p.vals_in_f(), 9000);
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_panics() {
        let _ = RandomFn::new(1, 0);
    }

    #[test]
    fn hoisted_eval_matches_eval() {
        let mut rng = ring_sim::rng::SplitMix64::new(0x4015);
        let mut hoisted = HoistedEval::default();
        let mut out = Vec::new();
        for &(data_len, vals_len, lanes) in
            &[(1usize, 0usize, 1usize), (4, 1, 3), (16, 1, 8), (9, 3, 2)]
        {
            let f = RandomFn::new(rng.next_u64(), 1 + rng.next_below(1 << 20));
            // Free positions out of order and wrapping, as a segment's
            // decoded indices are.
            let free: Vec<usize> = [data_len - 1, 0, data_len / 2]
                .into_iter()
                .take(data_len.min(3))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .rev()
                .collect();
            let mut data: Vec<Vec<u64>> = (0..lanes)
                .map(|_| (0..data_len).map(|_| rng.next_u64()).collect())
                .collect();
            let vals: Vec<Vec<u64>> = (0..lanes)
                .map(|_| (0..vals_len).map(|_| rng.next_u64()).collect())
                .collect();
            hoisted.reset(&f, lanes, data_len, vals_len, &free);
            for lane in 0..lanes {
                hoisted.prepare_lane(lane, &data[lane], &vals[lane]);
            }
            for round in 0..20 {
                // Evaluate a shrinking, reordered subset of lanes, as a
                // search retires the lanes that found their preimage.
                let which: Vec<usize> = (0..lanes).rev().skip(round % lanes).collect();
                let free_vals: Vec<u64> = (0..which.len() * free.len())
                    .map(|_| rng.next_below(64))
                    .collect();
                hoisted.eval_lanes(&which, &free_vals, &mut out);
                for (a, &lane) in which.iter().enumerate() {
                    for (j, &i) in free.iter().enumerate() {
                        data[lane][i] = free_vals[a * free.len() + j];
                    }
                    assert_eq!(out[a], f.eval(&data[lane], &vals[lane]), "lane {lane}");
                }
            }
        }
    }

    #[test]
    fn eval_table_matches_eval_across_shapes_and_lanes() {
        let mut rng = ring_sim::rng::SplitMix64::new(0xeaa1);
        for &(data_len, vals_len) in &[(0usize, 0usize), (1, 0), (0, 1), (4, 1), (8, 3), (64, 1)] {
            let f = RandomFn::new(rng.next_u64(), 1 + rng.next_below(1 << 20));
            let table = EvalTable::new(&f, data_len, vals_len);
            for &stride in &[1usize, 2, 7, 8] {
                // Slot-major storage: stride lanes of random inputs.
                let data: Vec<u64> = (0..data_len * stride).map(|_| rng.next_u64()).collect();
                let vals: Vec<u64> = (0..vals_len * stride).map(|_| rng.next_u64()).collect();
                for lane in 0..stride {
                    let d: Vec<u64> = (0..data_len).map(|i| data[i * stride + lane]).collect();
                    let v: Vec<u64> = (0..vals_len).map(|i| vals[i * stride + lane]).collect();
                    assert_eq!(
                        table.eval_strided(&data, &vals, stride, lane),
                        f.eval(&d, &v),
                        "shape ({data_len},{vals_len}) stride {stride} lane {lane}"
                    );
                }
            }
        }
    }
}
