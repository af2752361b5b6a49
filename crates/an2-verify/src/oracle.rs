//! Naive reference implementations the optimised schedulers are checked
//! against.
//!
//! Every oracle here favours obviousness over speed: plain `Vec`s, no
//! bitsets, no scratch reuse, recursion where recursion is clearest. A
//! differential test runs the optimised implementation and its oracle on
//! the same instances and fails on the first divergence.

use an2_sched::pim::{AcceptPolicy, IterationLimit};
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{
    InputPort, MatchingN, OutputPort, PortSetN, RequestMatrix, RequestMatrixN, WeightPolicy,
};

/// Textbook PIM over `Vec<Vec<bool>>` request matrices.
///
/// Replicates `an2_sched::Pim`'s randomness *exactly*: the same per-port
/// streams (`root.split(j)` for output grants, `root.split(0x1_0000 + i)`
/// for input accepts), the same draw discipline (an empty candidate set
/// draws nothing; a non-empty one draws one bounded index and picks the
/// index-th smallest member), the same phase order and early exit. Given
/// the same seed and request sequence, the reference and the optimised
/// scheduler must therefore produce **identical matchings, slot after
/// slot** — any divergence convicts one of them.
#[derive(Clone, Debug)]
pub struct ReferencePim {
    n: usize,
    limit: IterationLimit,
    accept: AcceptPolicy,
    output_rng: Vec<Xoshiro256>,
    input_rng: Vec<Xoshiro256>,
    accept_ptr: Vec<usize>,
}

impl ReferencePim {
    /// Mirrors `Pim::new`: four iterations, random accept.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_options(n, seed, IterationLimit::Fixed(4), AcceptPolicy::Random)
    }

    /// Mirrors `Pim::with_options`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_options(
        n: usize,
        seed: u64,
        limit: IterationLimit,
        accept: AcceptPolicy,
    ) -> Self {
        assert!(n > 0, "switch must have at least one port");
        let root = Xoshiro256::seed_from(seed);
        Self {
            n,
            limit,
            accept,
            output_rng: (0..n).map(|j| root.split(j as u64)).collect(),
            input_rng: (0..n).map(|i| root.split(0x1_0000 + i as u64)).collect(),
            accept_ptr: vec![0; n],
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Schedules one slot; `out[i]` is the output matched to input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not `n`×`n`.
    pub fn schedule(&mut self, requests: &[Vec<bool>]) -> Vec<Option<usize>> {
        let n = self.n;
        assert_eq!(requests.len(), n, "request matrix must be n x n");
        for row in requests {
            assert_eq!(row.len(), n, "request matrix must be n x n");
        }
        let mut out_of: Vec<Option<usize>> = vec![None; n];
        let mut in_of: Vec<Option<usize>> = vec![None; n];
        let max_iters = match self.limit {
            IterationLimit::Fixed(k) => k,
            IterationLimit::ToCompletion => n,
        };
        for _ in 0..max_iters {
            // Request phase: unmatched inputs with a cell for unmatched j,
            // in ascending input order (the order `PortSet` iterates).
            let mut requests_to: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut any_request = false;
            for (j, to) in requests_to.iter_mut().enumerate() {
                if in_of[j].is_some() {
                    continue;
                }
                for (i, row) in requests.iter().enumerate() {
                    if out_of[i].is_none() && row[j] {
                        to.push(i);
                    }
                }
                any_request |= !to.is_empty();
            }
            if any_request {
                // matches the optimised early exit before any draw
            } else {
                break;
            }

            // Grant phase: each output with requests draws once.
            let mut grants_to: Vec<Vec<usize>> = vec![Vec::new(); n];
            for j in 0..n {
                if in_of[j].is_some() {
                    continue;
                }
                let cands = &requests_to[j];
                if cands.is_empty() {
                    continue;
                }
                let i = cands[self.output_rng[j].index(cands.len())];
                grants_to[i].push(j);
            }

            // Accept phase: each granted input picks one grant. `grants`
            // is ascending because the grant loop ran in ascending j.
            for i in 0..n {
                if out_of[i].is_some() {
                    continue;
                }
                let grants = &grants_to[i];
                if grants.is_empty() {
                    continue;
                }
                let j = match self.accept {
                    AcceptPolicy::Random => grants[self.input_rng[i].index(grants.len())],
                    AcceptPolicy::RoundRobin => {
                        let ptr = self.accept_ptr[i];
                        let j = grants
                            .iter()
                            .copied()
                            .find(|&g| g >= ptr)
                            .unwrap_or(grants[0]);
                        self.accept_ptr[i] = (j + 1) % n;
                        j
                    }
                    AcceptPolicy::LowestIndex => grants[0],
                };
                out_of[i] = Some(j);
                in_of[j] = Some(i);
            }
        }
        out_of
    }
}

/// Kuhn's augmenting-path maximum matching — the classic `O(V · E)`
/// recursive formulation — returning the maximum matching size.
///
/// The reference oracle for the optimised bitset Hopcroft–Karp: both must
/// report the same size on every instance (the matchings themselves may
/// legitimately differ).
pub fn kuhn_maximum_matching_size(requests: &RequestMatrix) -> usize {
    const NIL: usize = usize::MAX;
    let n = requests.n();

    fn try_augment(
        i: usize,
        requests: &RequestMatrix,
        seen: &mut [bool],
        match_out: &mut [usize],
    ) -> bool {
        let n = requests.n();
        for j in 0..n {
            if !requests.has(an2_sched::InputPort::new(i), an2_sched::OutputPort::new(j))
                || seen[j]
            {
                continue;
            }
            seen[j] = true;
            if match_out[j] == NIL || try_augment(match_out[j], requests, seen, match_out) {
                match_out[j] = i;
                return true;
            }
        }
        false
    }

    let mut match_out = vec![NIL; n];
    let mut size = 0;
    for i in 0..n {
        let mut seen = vec![false; n];
        if try_augment(i, requests, &mut seen, &mut match_out) {
            size += 1;
        }
    }
    size
}

/// Brute-force frame-schedule feasibility: can `demand` (cells per pair
/// per frame) be decomposed into `frame_len` partial matchings?
///
/// Exhaustive backtracking over unit cells with one symmetry reduction
/// (empty frame slots are interchangeable, so only the first empty slot
/// is ever tried). The oracle for the incremental Slepian–Duguid insert:
/// by the theorem, feasibility should hold exactly when every input and
/// output load is at most `frame_len` — this search proves it per
/// instance without invoking the theorem. Keep instances small (`n`,
/// `frame_len` ≲ 6): the search is exponential by design.
///
/// # Panics
///
/// Panics if `demand` is not square.
pub fn frame_demand_feasible(demand: &[Vec<usize>], frame_len: usize) -> bool {
    let n = demand.len();
    for row in demand {
        assert_eq!(row.len(), n, "demand matrix must be square");
    }
    let mut cells = Vec::new();
    for (i, row) in demand.iter().enumerate() {
        for (j, &count) in row.iter().enumerate() {
            for _ in 0..count {
                cells.push((i, j));
            }
        }
    }
    if cells.len() > n * frame_len {
        return false;
    }

    struct Search<'a> {
        cells: &'a [(usize, usize)],
        in_used: Vec<Vec<bool>>,
        out_used: Vec<Vec<bool>>,
        slot_load: Vec<usize>,
    }
    impl Search<'_> {
        fn place(&mut self, k: usize) -> bool {
            if k == self.cells.len() {
                return true;
            }
            let (i, j) = self.cells[k];
            let mut tried_empty = false;
            for s in 0..self.slot_load.len() {
                if self.slot_load[s] == 0 {
                    if tried_empty {
                        continue; // interchangeable with the one we tried
                    }
                    tried_empty = true;
                }
                if self.in_used[s][i] || self.out_used[s][j] {
                    continue;
                }
                self.in_used[s][i] = true;
                self.out_used[s][j] = true;
                self.slot_load[s] += 1;
                if self.place(k + 1) {
                    return true;
                }
                self.in_used[s][i] = false;
                self.out_used[s][j] = false;
                self.slot_load[s] -= 1;
            }
            false
        }
    }

    Search {
        cells: &cells,
        in_used: vec![vec![false; n]; frame_len],
        out_used: vec![vec![false; n]; frame_len],
        slot_load: vec![0; frame_len],
    }
    .place(0)
}

/// Exact maximum-weight matching value by dynamic programming over
/// subsets of the **active** output columns — `O(R · 2^C · C)` for `R`
/// nonempty rows and `C` nonempty columns, factorial-free.
///
/// The differential oracle for the MWM scheduler family: the optimised
/// augmenting-path solver must achieve exactly this total weight on
/// every instance (the matchings themselves may legitimately differ when
/// several are optimal). `weight(i, j)` is consulted only for requested
/// pairs and must be positive, mirroring the scheduler's ≥ 1 clamp.
///
/// Subsets are taken over the *distinct requested columns* rather than
/// all `N` outputs, so sparse wide instances (say 32 ports but 10
/// requested outputs) stay cheap; generate oracle instances with a
/// bounded column footprint rather than a bounded radix.
///
/// # Panics
///
/// Panics if more than 20 distinct columns hold requests (the DP table
/// would exceed a million entries — shrink the instance instead).
pub fn brute_force_max_weight_matching<const W: usize>(
    requests: &an2_sched::RequestMatrixN<W>,
    weight: &dyn Fn(usize, usize) -> i64,
) -> i64 {
    let cols: Vec<usize> = requests.nonempty_cols().iter().collect();
    let c = cols.len();
    assert!(
        c <= 20,
        "brute-force max-weight DP supports at most 20 active columns, got {c}"
    );
    const UNREACHED: i64 = i64::MIN;
    // dp[mask] = best total weight of any matching that uses exactly the
    // columns in `mask`, over the rows processed so far.
    let mut dp = vec![UNREACHED; 1 << c];
    dp[0] = 0;
    for i in requests.nonempty_rows().iter() {
        let prev = dp.clone();
        for (mask, &base) in prev.iter().enumerate() {
            if base == UNREACHED {
                continue;
            }
            for (bit, &j) in cols.iter().enumerate() {
                if mask & (1 << bit) == 0
                    && requests.has(InputPort::new(i), OutputPort::new(j))
                {
                    let extended = base + weight(i, j);
                    if extended > dp[mask | (1 << bit)] {
                        dp[mask | (1 << bit)] = extended;
                    }
                }
            }
        }
    }
    dp.into_iter().max().expect("dp table is never empty")
}

/// The exact max-weight matching solver as it stood before the
/// production `an2_sched::MwmN` gained its edge list and dirty-row
/// relaxation: successive max-gain augmentation where every
/// Bellman–Ford sweep re-walks every active row and re-reads every
/// weight.
///
/// The production solver must return **the same matching, pair for
/// pair** — not merely one of equal weight — because the engines' delay
/// digests depend on which of several optimal matchings wins a tie. The
/// oracle keeps its own Q-matrix (the last observation per pair, read
/// clamped to at least 1, 1 for a pair never observed) so that
/// multi-slot sequences can be fed to both sides identically.
#[derive(Clone, Debug)]
pub struct ReferenceMwm {
    n: usize,
    policy: WeightPolicy,
    q: Vec<u32>,
}

impl ReferenceMwm {
    /// An `n`-port reference whose observations fold through `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, policy: WeightPolicy) -> Self {
        assert!(n > 0, "switch must have at least one port");
        Self {
            n,
            policy,
            q: vec![0; n * n],
        }
    }

    /// Records one queue observation, as `Scheduler::observe_queue` does.
    pub fn observe_queue(&mut self, i: usize, j: usize, depth: u32, age: u32) {
        self.q[i * self.n + j] = self.policy.weight(depth, age);
    }

    /// The effective weight of pair `(i, j)`: its last observation, or 1.
    fn weight(&self, i: usize, j: usize) -> i64 {
        i64::from(self.q[i * self.n + j].max(1))
    }

    /// Solves one slot over the oracle's own Q-matrix.
    pub fn schedule<const W: usize>(
        &self,
        requests: &RequestMatrixN<W>,
        active_inputs: &PortSetN<W>,
        active_outputs: &PortSetN<W>,
    ) -> MatchingN<W> {
        Self::solve(requests, active_inputs, active_outputs, &|i, j| {
            self.weight(i, j)
        })
    }

    /// The full-sweep solver over an arbitrary positive weight function.
    /// `active_inputs`/`active_outputs` restrict the graph to healthy
    /// ports.
    pub fn solve<const W: usize>(
        requests: &RequestMatrixN<W>,
        active_inputs: &PortSetN<W>,
        active_outputs: &PortSetN<W>,
        weight: &dyn Fn(usize, usize) -> i64,
    ) -> MatchingN<W> {
        const NIL: u32 = u32::MAX;
        const NEG: i64 = i64::MIN / 2;
        let n = requests.n();
        let mut match_out = vec![NIL; n];
        let mut match_in = vec![NIL; n];
        let mut label_in = vec![NEG; n];
        let mut gain_out = vec![NEG; n];
        let mut pred_out = vec![NIL; n];
        let mut active_in: Vec<u32> = Vec::new();
        for i in requests.nonempty_rows().intersection(active_inputs).iter() {
            if requests.row(InputPort::new(i)).intersects(active_outputs) {
                active_in.push(i as u32);
            }
        }
        let active_cols = requests.nonempty_cols().intersection(active_outputs);

        // Labels propagate one alternating-path edge per sweep, and a
        // simple path visits each active input at most once.
        let sweep_cap = active_in.len() + 2;

        loop {
            // Relabel from scratch for this augmentation.
            label_in.fill(NEG);
            gain_out.fill(NEG);
            pred_out.fill(NIL);
            for &iu in &active_in {
                if match_out[iu as usize] == NIL {
                    label_in[iu as usize] = 0;
                }
            }
            // Bellman–Ford over the alternating-gain graph, every active
            // row every sweep, ascending i then ascending j.
            for _ in 0..sweep_cap {
                let mut changed = false;
                for &iu in &active_in {
                    let i = iu as usize;
                    let li = label_in[i];
                    if li == NEG {
                        continue;
                    }
                    for j in requests
                        .row(InputPort::new(i))
                        .intersection(active_outputs)
                        .iter()
                    {
                        let g = li + weight(i, j);
                        if g > gain_out[j] {
                            gain_out[j] = g;
                            pred_out[j] = iu;
                            changed = true;
                            let i2 = match_in[j];
                            if i2 != NIL {
                                let relabeled = g - weight(i2 as usize, j);
                                if relabeled > label_in[i2 as usize] {
                                    label_in[i2 as usize] = relabeled;
                                }
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }

            // The best strictly-positive completion at a free output;
            // ties break toward the lower output index.
            let mut best_gain = 0i64;
            let mut best_j = NIL as usize;
            for j in active_cols.iter() {
                if match_in[j] == NIL && gain_out[j] > best_gain {
                    best_gain = gain_out[j];
                    best_j = j;
                }
            }
            if best_j == NIL as usize {
                break;
            }

            // Apply the augmenting path by walking the predecessor chain.
            let mut j = best_j;
            loop {
                let i = pred_out[j] as usize;
                let freed = match_out[i];
                match_out[i] = j as u32;
                match_in[j] = i as u32;
                if freed == NIL {
                    break;
                }
                j = freed as usize;
            }
        }

        let mut m = MatchingN::new(n);
        for &iu in &active_in {
            let j = match_out[iu as usize];
            if j != NIL {
                m.pair(InputPort::new(iu as usize), OutputPort::new(j as usize))
                    .expect("reference MWM produced a conflicting matching");
            }
        }
        m
    }
}

/// Whether `measured` agrees with an analytic `predicted` value within
/// `rel_tol` relative error (plus `abs_tol` slack for near-zero targets).
///
/// The confidence bound for the M/D/1 / Karol cross-checks: simulations
/// are finite, so exact equality is never expected.
pub fn within_confidence(measured: f64, predicted: f64, rel_tol: f64, abs_tol: f64) -> bool {
    (measured - predicted).abs() <= predicted.abs() * rel_tol + abs_tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kuhn_on_a_known_instance() {
        // Perfect matching exists on the identity plus one extra edge.
        let reqs = RequestMatrix::from_fn(4, |i, j| i == j || (i == 0 && j == 1));
        assert_eq!(kuhn_maximum_matching_size(&reqs), 4);
        // A star: all inputs want output 0 only.
        let star = RequestMatrix::from_fn(4, |_, j| j == 0);
        assert_eq!(kuhn_maximum_matching_size(&star), 1);
    }

    #[test]
    fn frame_feasibility_matches_the_load_condition() {
        // Loads <= frame_len: feasible.
        let ok = vec![vec![2, 1, 0], vec![1, 0, 2], vec![0, 2, 1]];
        assert!(frame_demand_feasible(&ok, 3));
        // One output overloaded: infeasible.
        let over = vec![vec![2, 0, 0], vec![2, 0, 0], vec![0, 0, 0]];
        assert!(!frame_demand_feasible(&over, 3));
    }

    #[test]
    fn max_weight_dp_on_known_instances() {
        // Diagonal wins over the heavier single edge plus nothing.
        let reqs = RequestMatrix::from_pairs(3, [(0, 0), (0, 1), (1, 0), (2, 2)]);
        let w = |i: usize, j: usize| -> i64 { [[5, 9, 1], [8, 1, 1], [1, 1, 3]][i][j] };
        // Options: {0-1, 1-0, 2-2} = 9 + 8 + 3 = 20 is optimal.
        assert_eq!(brute_force_max_weight_matching(&reqs, &w), 20);
        // Empty matrix: the empty matching.
        assert_eq!(
            brute_force_max_weight_matching(&RequestMatrix::new(4), &|_, _| 1),
            0
        );
    }

    #[test]
    fn max_weight_dp_matches_naive_recursion() {
        // Cross-check the subset DP against a transparent skip-or-match
        // recursion on tiny random instances.
        fn naive(reqs: &RequestMatrix, w: &dyn Fn(usize, usize) -> i64) -> i64 {
            fn go(
                reqs: &RequestMatrix,
                w: &dyn Fn(usize, usize) -> i64,
                i: usize,
                used: &mut Vec<bool>,
            ) -> i64 {
                if i == reqs.n() {
                    return 0;
                }
                let mut best = go(reqs, w, i + 1, used);
                for j in 0..reqs.n() {
                    if !used[j]
                        && reqs.has(
                            an2_sched::InputPort::new(i),
                            an2_sched::OutputPort::new(j),
                        )
                    {
                        used[j] = true;
                        best = best.max(w(i, j) + go(reqs, w, i + 1, used));
                        used[j] = false;
                    }
                }
                best
            }
            go(reqs, w, 0, &mut vec![false; reqs.n()])
        }
        let mut rng = Xoshiro256::seed_from(0xD0);
        for _ in 0..100 {
            let n = 1 + rng.index(6);
            let density = rng.uniform_f64();
            let reqs = RequestMatrix::from_fn(n, |_, _| rng.bernoulli(density));
            let weights: Vec<i64> = (0..n * n).map(|_| 1 + rng.index(9) as i64).collect();
            let w = |i: usize, j: usize| weights[i * n + j];
            assert_eq!(
                brute_force_max_weight_matching(&reqs, &w),
                naive(&reqs, &w)
            );
        }
    }

    #[test]
    fn confidence_bounds() {
        assert!(within_confidence(1.02, 1.0, 0.05, 0.0));
        assert!(!within_confidence(1.2, 1.0, 0.05, 0.0));
        assert!(within_confidence(0.001, 0.0, 0.05, 0.01));
    }
}
