//! Queue-aware maximum-weight matching — the MWM/LQF/OCF family.
//!
//! The "From MWM to iSLIP" tutorial lineage formulates crossbar
//! scheduling over a **Q-matrix**: entry `(i, j)` carries the weight of
//! serving the VOQ from input `i` to output `j` — its queue depth for
//! LQF (longest queue first) or its head-of-line cell age for OCF
//! (oldest cell first). MWM picks the matching maximizing total weight,
//! which Tassiulas–Ephremides-style arguments show is throughput-optimal
//! where the heuristic schedulers (PIM, iSLIP) are not. The paper rejects
//! this class for hardware (§3.4 rejects even unweighted maximum
//! matching as too slow), but it is the standard yardstick the
//! post-1992 literature compares against, so the repo carries it as an
//! idealized comparator next to [`crate::maximum`].
//!
//! Weights arrive through the [`Scheduler::observe_queue`] hook: the
//! simulator walks the active request pairs before each slot and reports
//! each VOQ's depth and head-of-line age; the policy folds them into the
//! Q-matrix. Pairs never observed default to weight 1, so a weightless
//! drive (digest tests, raw request matrices) degrades to
//! maximum-cardinality behaviour rather than misbehaving.
//!
//! The solver is successive max-gain augmentation: starting from the
//! empty matching, repeatedly find the alternating path of maximum gain
//! (added weights minus removed weights) by Bellman–Ford-style
//! relaxation over the active request pairs, and stop when no path gains.
//! Starting from an extreme matching (maximum weight among matchings of
//! its cardinality) the relaxation meets no positive alternating cycle,
//! each augmentation preserves extremity, and the per-cardinality gains
//! are non-increasing — so the first non-positive gain is the global
//! optimum. Because every effective weight is clamped to at least 1, a
//! lone free–free requested pair is itself a positive-gain path, hence
//! the result is always **maximal** over the healthy ports as well as
//! max-weight (the chaos degraded-mask property relies on this).
//!
//! Each `schedule` call first flattens the graph into a CSR edge list
//! (compressed sparse row): the active rows in ascending order, each
//! row's healthy requested outputs in ascending order, with their
//! Q-matrix weights already clamped. The ~N augmentations of a slot then
//! read only that list, so cost scales with the active-pair count, not
//! `N²`. The weight of each matched edge is kept per output while the
//! augmenting path is applied, so removing an edge during relaxation is
//! one array read. Each sweep relaxes only **dirty** rows — those whose
//! label rose since the row was last relaxed — in the same ascending
//! order, with the same in-sweep updates, so a row raised earlier in a
//! sweep is still relaxed later in that sweep. This is exact, not an
//! approximation: a row relaxed again with an unchanged label produces
//! the same `label + w` sums it already produced, output gains only ever
//! grow, and an update needs a strict `>`. Such a row cannot change any
//! gain, predecessor or label, so every sweep, every tie-break and the
//! stopping sweep are what the full sweep over all rows would give. All
//! working storage is sized once at construction, so the hot path
//! allocates nothing.

use crate::matching::MatchingN;
use crate::port::{InputPort, OutputPort, PortSetN};
use crate::requests::RequestMatrixN;
use crate::scheduler::{PortMaskN, Scheduler};

const NIL: u32 = u32::MAX;
/// "Unreached" label; far enough from 0 that no legal path sum crosses it.
const NEG: i64 = i64::MIN / 2;

/// How queue observations become Q-matrix weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WeightPolicy {
    /// Longest queue first: weight = VOQ depth (cells buffered).
    Lqf,
    /// Oldest cell first: weight = head-of-line cell age (slots waited).
    Ocf,
}

impl WeightPolicy {
    /// The Q-matrix weight of a VOQ holding `depth` cells whose
    /// head-of-line cell has waited `age` slots. Always at least 1, so a
    /// requested pair never weighs nothing (an empty VOQ would not
    /// request at all).
    pub fn weight(self, depth: u32, age: u32) -> u32 {
        match self {
            WeightPolicy::Lqf => depth.max(1),
            WeightPolicy::Ocf => age.saturating_add(1),
        }
    }
}

/// The Q-matrix: per-pair scheduling weights, written by queue
/// observations and read (clamped to ≥ 1) by the weighted schedulers.
///
/// Shared by [`MwmN`] and the SERENADE merge (`crate::serenade`), which
/// is why it lives here as a crate-internal type. Entries persist until
/// overwritten; that is sound because the engine re-observes every
/// *active* pair each slot and the solvers only read weights of
/// requested pairs.
#[derive(Clone, Debug)]
pub(crate) struct QMatrix {
    n: usize,
    w: Vec<u32>,
}

impl QMatrix {
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "switch must have at least one port");
        Self { n, w: vec![0; n * n] }
    }

    /// Records one observation; later observations of the same pair win.
    // an2-lint: hot
    // an2-lint: allow(panic-freedom) matrix indices are i*n + j with both factors pinned < n by the size assert
    pub(crate) fn observe(&mut self, i: usize, j: usize, weight: u32) {
        debug_assert!(i < self.n && j < self.n, "pair outside switch");
        self.w[i * self.n + j] = weight;
    }

    /// The effective weight of serving pair `(i, j)`: the recorded
    /// observation, or 1 for a pair that requested without one.
    // an2-lint: hot
    // an2-lint: allow(panic-freedom) matrix indices are i*n + j with both factors < n by the port types' bound
    pub(crate) fn weight(&self, i: usize, j: usize) -> i64 {
        i64::from(self.w[i * self.n + j].max(1))
    }
}

/// Working storage for the max-gain augmentation, sized once in
/// [`MwmN::new`] so that solving a slot never allocates.
#[derive(Clone, Debug)]
struct MwmScratch {
    /// `match_out[i]` = output matched to input `i` (NIL if free).
    match_out: Vec<u32>,
    /// `match_in[j]` = input matched to output `j` (NIL if free).
    match_in: Vec<u32>,
    /// `match_w[j]` = weight of the edge matched at output `j` (read only
    /// while `match_in[j]` is not NIL).
    match_w: Vec<i64>,
    /// Best alternating-path gain that leaves input `i` free to extend.
    label_in: Vec<i64>,
    /// Whether `label_in[i]` rose since row `i` was last relaxed.
    dirty: Vec<bool>,
    /// Best alternating-path gain of an added edge into output `j`.
    gain_out: Vec<i64>,
    /// The input whose edge achieved `gain_out[j]`.
    pred_out: Vec<u32>,
    /// Active inputs (healthy, with at least one healthy requested
    /// output), ascending; the first `active` entries of a call are live.
    active_in: Vec<u32>,
    /// CSR row offsets: the edges of `active_in[k]` are
    /// `edge_start[k]..edge_start[k + 1]`.
    edge_start: Vec<u32>,
    /// Output of each edge, ascending within a row.
    edge_j: Vec<u32>,
    /// Q-matrix weight of each edge, already clamped to at least 1.
    edge_w: Vec<i64>,
}

impl MwmScratch {
    fn new(n: usize) -> Self {
        Self {
            match_out: vec![NIL; n],
            match_in: vec![NIL; n],
            match_w: vec![0; n],
            label_in: vec![NEG; n],
            dirty: vec![false; n],
            gain_out: vec![NEG; n],
            pred_out: vec![NIL; n],
            active_in: vec![0; n],
            edge_start: vec![0; n + 1],
            edge_j: vec![0; n * n],
            edge_w: vec![0; n * n],
        }
    }
}

/// Maximum-weight matching over the Q-matrix, generic over the bitset
/// width `W`. Use the [`Mwm`] alias unless you are driving a wide (up to
/// 1024-port) switch.
///
/// Deterministic and RNG-free: the matching is a pure function of the
/// request matrix, the Q-matrix and the port mask, with ties broken
/// toward lower port indices — so tie-breaks cannot depend on the order
/// observations arrived in.
///
/// # Examples
///
/// ```
/// use an2_sched::{InputPort, Mwm, OutputPort, RequestMatrix, Scheduler, WeightPolicy};
/// let mut s = Mwm::new(2, WeightPolicy::Lqf);
/// // Cross VOQs are deep; the diagonal is shallow.
/// s.observe_queue(InputPort::new(0), OutputPort::new(1), 9, 0);
/// s.observe_queue(InputPort::new(1), OutputPort::new(0), 9, 0);
/// let reqs = RequestMatrix::from_fn(2, |_, _| true);
/// let m = s.schedule(&reqs);
/// assert_eq!(m.output_of(InputPort::new(0)), Some(OutputPort::new(1)));
/// assert_eq!(m.output_of(InputPort::new(1)), Some(OutputPort::new(0)));
/// ```
#[derive(Clone, Debug)]
pub struct MwmN<const W: usize = 4> {
    n: usize,
    policy: WeightPolicy,
    q: QMatrix,
    mask: Option<PortMaskN<W>>,
    scratch: MwmScratch,
}

/// The default-width MWM scheduler (up to [`crate::MAX_PORTS`] ports).
pub type Mwm = MwmN<4>;

/// The wide MWM scheduler (up to [`crate::MAX_WIDE_PORTS`] ports).
pub type WideMwm = MwmN<16>;

impl<const W: usize> MwmN<W> {
    /// Creates an `n`-port MWM scheduler with the given weight policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn new(n: usize, policy: WeightPolicy) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= PortSetN::<W>::CAPACITY, "switch size {n} out of range");
        Self {
            n,
            policy,
            q: QMatrix::new(n),
            mask: None,
            scratch: MwmScratch::new(n),
        }
    }

    /// Longest-queue-first MWM (weight = VOQ depth).
    pub fn lqf(n: usize) -> Self {
        Self::new(n, WeightPolicy::Lqf)
    }

    /// Oldest-cell-first MWM (weight = head-of-line cell age).
    pub fn ocf(n: usize) -> Self {
        Self::new(n, WeightPolicy::Ocf)
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configured weight policy.
    pub fn policy(&self) -> WeightPolicy {
        self.policy
    }

    /// Successive max-gain augmentation; see the module docs for the
    /// correctness argument. `active_inputs`/`active_outputs` restrict the
    /// graph to healthy ports.
    // an2-lint: allow(panic-freedom, overflow-discipline) scratch arrays have length n (edge_start n + 1, the edge list n * n) and every port, active-row and edge index stays below it; a label sums at most n weights below 2^32, far inside i64
    fn solve(
        &mut self,
        requests: &RequestMatrixN<W>,
        active_inputs: &PortSetN<W>,
        active_outputs: &PortSetN<W>,
    ) -> MatchingN<W> {
        let n = self.n;
        let q = &self.q;
        let MwmScratch {
            match_out,
            match_in,
            match_w,
            label_in,
            dirty,
            gain_out,
            pred_out,
            active_in,
            edge_start,
            edge_j,
            edge_w,
        } = &mut self.scratch;
        match_out.fill(NIL);
        match_in.fill(NIL);

        // The edge list, built once per call: active rows ascending, each
        // row's healthy requested outputs ascending, weights pre-clamped.
        let mut active = 0;
        let mut edges = 0;
        for i in requests.nonempty_rows().intersection(active_inputs).iter() {
            let row_start = edges;
            for j in requests
                .row(InputPort::new(i))
                .intersection(active_outputs)
                .iter()
            {
                edge_j[edges] = j as u32;
                edge_w[edges] = q.weight(i, j);
                edges += 1;
            }
            if edges > row_start {
                active_in[active] = i as u32;
                edge_start[active] = row_start as u32;
                active += 1;
            }
        }
        edge_start[active] = edges as u32;
        let active_in = &active_in[..active];
        let active_cols = requests.nonempty_cols().intersection(active_outputs);

        // Labels propagate one alternating-path edge per sweep, and a
        // simple path visits each active input at most once.
        let sweep_cap = active + 2;

        loop {
            // Relabel from scratch for this augmentation.
            label_in.fill(NEG);
            dirty.fill(false);
            gain_out.fill(NEG);
            pred_out.fill(NIL);
            for &iu in active_in {
                if match_out[iu as usize] == NIL {
                    label_in[iu as usize] = 0;
                    dirty[iu as usize] = true;
                }
            }
            // Bellman–Ford over the alternating-gain graph: adding edge
            // (i, j) contributes +w(i, j); continuing through a matched
            // output removes its edge, contributing -w(partner, j). Fixed
            // sweep order (ascending i, ascending j) makes every
            // equal-gain tie resolve to the lowest index. Only dirty rows
            // are relaxed: a row whose label has not risen since its last
            // relaxation would reproduce gains that are already in place.
            for _ in 0..sweep_cap {
                let mut changed = false;
                for (k, &iu) in active_in.iter().enumerate() {
                    let i = iu as usize;
                    if !dirty[i] {
                        continue;
                    }
                    dirty[i] = false;
                    let li = label_in[i];
                    let (start, end) = (edge_start[k] as usize, edge_start[k + 1] as usize);
                    for (&ju, &w) in edge_j[start..end].iter().zip(&edge_w[start..end]) {
                        let j = ju as usize;
                        let g = li + w;
                        if g > gain_out[j] {
                            gain_out[j] = g;
                            pred_out[j] = iu;
                            changed = true;
                            let i2 = match_in[j];
                            if i2 != NIL {
                                let relabeled = g - match_w[j];
                                if relabeled > label_in[i2 as usize] {
                                    label_in[i2 as usize] = relabeled;
                                    dirty[i2 as usize] = true;
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

            // Apply the augmenting path by walking the predecessor chain:
            // each rematched input's former output is the next to rematch.
            let mut j = best_j;
            loop {
                let i = pred_out[j] as usize;
                let freed = match_out[i];
                match_out[i] = j as u32;
                match_in[j] = i as u32;
                match_w[j] = q.weight(i, j);
                if freed == NIL {
                    break;
                }
                j = freed as usize;
            }
        }

        let mut m = MatchingN::new(n);
        for &iu in active_in {
            let j = match_out[iu as usize];
            if j != NIL {
                m.pair(InputPort::new(iu as usize), OutputPort::new(j as usize))
                    .expect("MWM produced a conflicting matching");
            }
        }
        m
    }
}

impl<const W: usize> Scheduler<W> for MwmN<W> {
    // an2-lint: allow(panic-freedom) the size assert_eq pins requests.n() == self.n
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        let n = requests.n();
        assert_eq!(n, self.n, "request matrix size {n} != scheduler size {}", self.n);
        let full = PortSetN::all(n);
        let (active_inputs, active_outputs) = match &self.mask {
            Some(mask) => {
                assert_eq!(
                    mask.n(),
                    n,
                    "mask size {} does not match request matrix size {n}",
                    mask.n()
                );
                (*mask.active_inputs(), *mask.active_outputs())
            }
            None => (full, full),
        };
        self.solve(requests, &active_inputs, &active_outputs)
    }

    fn name(&self) -> &'static str {
        match self.policy {
            WeightPolicy::Lqf => "mwm-lqf",
            WeightPolicy::Ocf => "mwm-ocf",
        }
    }

    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        self.mask = Some(mask);
    }

    fn idle_slot_is_noop(&self) -> bool {
        // RNG-free and a pure function of (requests, Q-matrix, mask); an
        // empty matrix yields an empty matching with no state change, and
        // an idle slot generates no queue observations either.
        true
    }

    fn wants_queue_observations(&self) -> bool {
        true
    }

    // an2-lint: hot
    fn observe_queue(&mut self, i: InputPort, j: OutputPort, depth: u32, age: u32) {
        self.q.observe(i.index(), j.index(), self.policy.weight(depth, age));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::RequestMatrix;
    use crate::rng::{SelectRng, Xoshiro256};
    use crate::scheduler::PortMask;

    /// Exhaustive max-weight reference: rows in order, each either skipped
    /// or matched to a free requested output.
    fn brute_force_weight(reqs: &RequestMatrix, w: &dyn Fn(usize, usize) -> i64) -> i64 {
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
            for j in reqs.row(InputPort::new(i)).iter() {
                if !used[j] {
                    used[j] = true;
                    best = best.max(w(i, j) + go(reqs, w, i + 1, used));
                    used[j] = false;
                }
            }
            best
        }
        go(reqs, w, 0, &mut vec![false; reqs.n()])
    }

    fn matching_weight(m: &MatchingN<4>, s: &Mwm) -> i64 {
        m.pairs().map(|(i, j)| s.q.weight(i.index(), j.index())).sum()
    }

    #[test]
    fn unweighted_mwm_is_maximum_cardinality() {
        // With every weight defaulting to 1, max weight = max cardinality.
        let reqs = RequestMatrix::from_pairs(2, [(0, 0), (1, 0), (1, 1)]);
        let mut s = Mwm::lqf(2);
        let m = s.schedule(&reqs);
        assert_eq!(m.len(), 2);
        assert!(m.respects(&reqs));
    }

    #[test]
    fn heavy_cross_beats_light_diagonal() {
        let reqs = RequestMatrix::from_fn(2, |_, _| true);
        let mut s = Mwm::lqf(2);
        s.observe_queue(InputPort::new(0), OutputPort::new(0), 10, 0);
        s.observe_queue(InputPort::new(0), OutputPort::new(1), 9, 0);
        s.observe_queue(InputPort::new(1), OutputPort::new(0), 9, 0);
        s.observe_queue(InputPort::new(1), OutputPort::new(1), 1, 0);
        let m = s.schedule(&reqs);
        // 0-1 + 1-0 = 18 beats 0-0 + 1-1 = 11.
        assert_eq!(m.output_of(InputPort::new(0)), Some(OutputPort::new(1)));
        assert_eq!(m.output_of(InputPort::new(1)), Some(OutputPort::new(0)));
    }

    #[test]
    fn heavy_edge_outweighs_extra_cardinality_but_stays_maximal() {
        // (0,0) weighs 100; the only cardinality-2 matching {0-1, 1-0}
        // weighs 2. MWM must keep the heavy edge — and the result is still
        // maximal because the free pair (1, 1) was never requested.
        let reqs = RequestMatrix::from_pairs(2, [(0, 0), (0, 1), (1, 0)]);
        let mut s = Mwm::lqf(2);
        s.observe_queue(InputPort::new(0), OutputPort::new(0), 100, 0);
        let m = s.schedule(&reqs);
        assert_eq!(m.len(), 1);
        assert_eq!(m.output_of(InputPort::new(0)), Some(OutputPort::new(0)));
        assert!(m.is_maximal(&reqs));
    }

    #[test]
    fn long_augmenting_chain_reaches_the_optimum() {
        // i -> {i, i+1}; heavy weights on the diagonal force the solver to
        // flip a greedy off-diagonal start through augmentation.
        let n = 12;
        let reqs = RequestMatrix::from_fn(n, |i, j| j == i || j == i + 1);
        let mut s = Mwm::lqf(n);
        for i in 0..n {
            s.observe_queue(InputPort::new(i), OutputPort::new(i), 5, 0);
        }
        let m = s.schedule(&reqs);
        assert_eq!(m.len(), n);
        for (i, j) in m.pairs() {
            assert_eq!(i.index(), j.index());
        }
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = Xoshiro256::seed_from(0x3311);
        for trial in 0..200u64 {
            let n = 2 + rng.index(5); // 2..=6
            let density = 0.2 + rng.uniform_f64() * 0.8;
            let reqs = RequestMatrix::random(n, density, &mut rng);
            let mut s = Mwm::lqf(n);
            for (i, j) in reqs.pairs() {
                s.observe_queue(i, j, 1 + rng.index(9) as u32, 0);
            }
            let m = s.schedule(&reqs);
            assert!(m.respects(&reqs), "trial {trial}");
            assert!(m.is_maximal(&reqs), "trial {trial}");
            let got = matching_weight(&m, &s);
            let q = s.q.clone();
            let want = brute_force_weight(&reqs, &|i, j| q.weight(i, j));
            assert_eq!(got, want, "trial {trial}: n={n} density={density}");
        }
    }

    #[test]
    fn observation_order_does_not_matter() {
        let reqs = RequestMatrix::from_fn(4, |_, _| true);
        let obs: Vec<(usize, usize, u32)> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j, ((i * 7 + j * 3) % 5 + 1) as u32)))
            .collect();
        let mut forward = Mwm::ocf(4);
        for &(i, j, age) in &obs {
            forward.observe_queue(InputPort::new(i), OutputPort::new(j), 0, age);
        }
        let mut backward = Mwm::ocf(4);
        for &(i, j, age) in obs.iter().rev() {
            backward.observe_queue(InputPort::new(i), OutputPort::new(j), 0, age);
        }
        assert_eq!(forward.schedule(&reqs), backward.schedule(&reqs));
    }

    #[test]
    fn masked_mwm_excludes_failed_ports_and_stays_maximal() {
        let reqs = RequestMatrix::from_fn(6, |_, _| true);
        let mut s = Mwm::lqf(6);
        let mut mask = PortMask::all(6);
        mask.fail_input(1);
        mask.fail_output(4);
        s.set_port_mask(mask);
        let m = s.schedule(&reqs);
        assert_eq!(m.len(), 5);
        assert!(m.output_of(InputPort::new(1)).is_none());
        assert!(m.input_of(OutputPort::new(4)).is_none());
        // Full mask restores the unmasked result.
        let unmasked = Mwm::lqf(6).schedule(&reqs);
        s.set_port_mask(PortMask::all(6));
        assert_eq!(s.schedule(&reqs), unmasked);
    }

    #[test]
    fn policy_weights() {
        assert_eq!(WeightPolicy::Lqf.weight(0, 99), 1);
        assert_eq!(WeightPolicy::Lqf.weight(7, 99), 7);
        assert_eq!(WeightPolicy::Ocf.weight(99, 0), 1);
        assert_eq!(WeightPolicy::Ocf.weight(99, 6), 7);
        assert_eq!(WeightPolicy::Ocf.weight(0, u32::MAX), u32::MAX);
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(Mwm::lqf(4).name(), "mwm-lqf");
        assert_eq!(Mwm::ocf(4).name(), "mwm-ocf");
        assert!(Mwm::lqf(4).wants_queue_observations());
        assert!(Mwm::lqf(4).idle_slot_is_noop());
    }

    #[test]
    fn wide_mwm_spans_word_boundaries() {
        use crate::requests::WideRequestMatrix;
        let n = 520;
        let reqs = WideRequestMatrix::from_fn(n, |i, j| j == i || j + 1 == i);
        let mut s = WideMwm::lqf(n);
        let m = s.schedule(&reqs);
        assert_eq!(m.len(), n);
        assert!(m.respects(&reqs));
    }
}
