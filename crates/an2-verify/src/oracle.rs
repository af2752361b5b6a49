//! Naive reference implementations the optimised schedulers are checked
//! against.
//!
//! Every oracle here favours obviousness over speed: plain `Vec`s, no
//! bitsets, no scratch reuse, recursion where recursion is clearest. A
//! differential test runs the optimised implementation and its oracle on
//! the same instances and fails on the first divergence.

use an2_sched::islip::PointerUpdate;
use an2_sched::pim::{AcceptPolicy, IterationLimit};
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{
    InputPort, MatchingN, OutputPort, PortMaskN, PortSetN, RequestMatrix, RequestMatrixN,
    WeightPolicy,
};

/// Textbook PIM over plain `Vec`s.
///
/// Replicates `an2_sched::PimN<Xoshiro256, W>`'s randomness *exactly*: the
/// same per-port streams (`root.split(j)` for output grants,
/// `root.split(0x1_0000 + i)` for input accepts), the same draw
/// discipline (an empty candidate set draws nothing; a non-empty one
/// draws one bounded index and picks the index-th smallest member), the
/// same phase order and early exit. Wide widths (capacity above 256
/// ports, read from `W` exactly as `PimN` reads it) grant by rejection
/// sampling when the candidates cover at least half the switch, as the
/// production `grant_draw_with` does. Given the same seed, mask and
/// request sequence, the reference and the optimised scheduler must
/// therefore produce **identical matchings, slot after slot** — any
/// divergence convicts one of them.
///
/// The request matrix is read only through `RequestMatrixN::has`; every
/// phase works on `Vec<bool>` rows and `Vec<usize>` candidate lists.
#[derive(Clone, Debug)]
pub struct ReferencePim<const W: usize = 4> {
    n: usize,
    limit: IterationLimit,
    accept: AcceptPolicy,
    output_rng: Vec<Xoshiro256>,
    input_rng: Vec<Xoshiro256>,
    accept_ptr: Vec<usize>,
    /// `healthy_in[i]`: input `i` may request and accept.
    healthy_in: Vec<bool>,
    /// `healthy_out[j]`: output `j` may listen and grant.
    healthy_out: Vec<bool>,
}

/// One PIM iteration as [`ReferencePim::schedule_traced`] records it
/// (0-based ports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PimIteration {
    /// 1-based iteration number.
    pub iteration: usize,
    /// `requests[j]`: the inputs that requested output `j` this iteration,
    /// ascending. Only unmatched healthy inputs request, and only
    /// unmatched healthy outputs listen; every other entry is empty.
    pub requests: Vec<Vec<usize>>,
    /// `grants[i]`: the outputs that granted to input `i`, ascending.
    pub grants: Vec<Vec<usize>>,
    /// Pairs `(input, output)` accepted this iteration, by input.
    pub accepts: Vec<(usize, usize)>,
    /// Requests with both endpoints still unmatched after this iteration.
    pub unresolved_after: usize,
}

/// Rejection-sampling attempts per wide grant draw before the exact draw
/// (`GRANT_REJECT_CAP` in `an2_sched::pim`).
const GRANT_REJECT_CAP: usize = 8;

impl<const W: usize> ReferencePim<W> {
    /// Mirrors `PimN::new`: four iterations, random accept.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_options(n, seed, IterationLimit::Fixed(4), AcceptPolicy::Random)
    }

    /// Mirrors `PimN::with_options`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity.
    pub fn with_options(
        n: usize,
        seed: u64,
        limit: IterationLimit,
        accept: AcceptPolicy,
    ) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= PortSetN::<W>::CAPACITY, "switch size {n} out of range");
        let root = Xoshiro256::seed_from(seed);
        Self {
            n,
            limit,
            accept,
            output_rng: (0..n).map(|j| root.split(j as u64)).collect(),
            input_rng: (0..n).map(|i| root.split(0x1_0000 + i as u64)).collect(),
            accept_ptr: vec![0; n],
            healthy_in: vec![true; n],
            healthy_out: vec![true; n],
        }
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Replaces the healthy-port mask, as `Scheduler::set_port_mask` does:
    /// a failed input never requests or accepts, a failed output never
    /// listens, grants or draws.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not `n` ports wide.
    pub fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        assert_eq!(mask.n(), self.n, "mask size does not match the switch");
        self.healthy_in = (0..self.n)
            .map(|i| mask.active_inputs().contains(i))
            .collect();
        self.healthy_out = (0..self.n)
            .map(|j| mask.active_outputs().contains(j))
            .collect();
    }

    /// Schedules one slot.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not `n`×`n`.
    pub fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        self.schedule_traced(requests).0
    }

    /// Schedules one slot and returns every iteration's request, grant and
    /// accept sets beside the matching. An iteration in which no output
    /// has an eligible requester ends the slot unrecorded, so the trace
    /// holds exactly the iterations that issued a grant.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not `n`×`n`.
    pub fn schedule_traced(
        &mut self,
        requests: &RequestMatrixN<W>,
    ) -> (MatchingN<W>, Vec<PimIteration>) {
        let n = self.n;
        assert_eq!(requests.n(), n, "request matrix must be n x n");
        let req: Vec<Vec<bool>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| requests.has(InputPort::new(i), OutputPort::new(j)))
                    .collect()
            })
            .collect();
        let mut out_of: Vec<Option<usize>> = vec![None; n];
        let mut in_of: Vec<Option<usize>> = vec![None; n];
        let max_iters = match self.limit {
            IterationLimit::Fixed(k) => k,
            IterationLimit::ToCompletion => n,
        };
        let mut trace = Vec::new();
        for iteration in 1..=max_iters {
            // Request phase: unmatched healthy inputs with a cell for
            // unmatched healthy j, in ascending input order.
            let mut requests_to: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (j, to) in requests_to.iter_mut().enumerate() {
                if !self.healthy_out[j] || in_of[j].is_some() {
                    continue;
                }
                for (i, row) in req.iter().enumerate() {
                    if self.healthy_in[i] && out_of[i].is_none() && row[j] {
                        to.push(i);
                    }
                }
            }
            // No request anywhere: stop before any output draws.
            if requests_to.iter().all(Vec::is_empty) {
                break;
            }

            // Grant phase: each output with requests draws once, in
            // ascending output order.
            let mut grants: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (j, cands) in requests_to.iter().enumerate() {
                if !cands.is_empty() {
                    let i = Self::grant(&mut self.output_rng[j], cands, n);
                    grants[i].push(j);
                }
            }

            // Accept phase: each granted input picks one grant, in
            // ascending input order. `grants[i]` is ascending because the
            // grant loop ran in ascending j.
            let mut accepts = Vec::new();
            for (i, mine) in grants.iter().enumerate() {
                if mine.is_empty() {
                    continue;
                }
                let j = match self.accept {
                    AcceptPolicy::Random => mine[self.input_rng[i].index(mine.len())],
                    AcceptPolicy::RoundRobin => {
                        let ptr = self.accept_ptr[i];
                        let j = mine.iter().copied().find(|&g| g >= ptr).unwrap_or(mine[0]);
                        self.accept_ptr[i] = (j + 1) % n;
                        j
                    }
                    AcceptPolicy::LowestIndex => mine[0],
                };
                out_of[i] = Some(j);
                in_of[j] = Some(i);
                accepts.push((i, j));
            }

            let unresolved_after = (0..n)
                .filter(|&i| out_of[i].is_none())
                .map(|i| (0..n).filter(|&j| in_of[j].is_none() && req[i][j]).count())
                .sum();
            trace.push(PimIteration {
                iteration,
                requests: requests_to,
                grants,
                accepts,
                unresolved_after,
            });
        }

        let mut m = MatchingN::new(n);
        for (i, j) in out_of.iter().enumerate() {
            if let Some(j) = *j {
                m.pair(InputPort::new(i), OutputPort::new(j))
                    .expect("reference PIM produced a conflicting matching");
            }
        }
        (m, trace)
    }

    /// One output's grant: a uniform member of the ascending candidate
    /// list `cands`. Narrow widths draw one bounded index. Wide widths
    /// first try up to [`GRANT_REJECT_CAP`] uniform ports of the whole
    /// switch when the candidates cover at least half of it, keeping the
    /// first that is a candidate, and fall back to the bounded index.
    fn grant(rng: &mut Xoshiro256, cands: &[usize], n: usize) -> usize {
        if PortSetN::<W>::CAPACITY > 256 && cands.len() * 2 >= n {
            for _ in 0..GRANT_REJECT_CAP {
                let p = rng.index(n);
                if cands.contains(&p) {
                    return p;
                }
            }
        }
        cands[rng.index(cands.len())]
    }
}

/// Textbook round-robin matching (RRM and iSLIP) over plain `Vec`s: the
/// reference for `an2_sched::islip::RoundRobinMatchingN`.
///
/// Each unmatched healthy output grants the requesting unmatched healthy
/// input nearest at or after its grant pointer; each granted input
/// accepts the granting output nearest at or after its accept pointer.
/// Pointers move one past the chosen port, only in the first iteration:
/// RRM moves a grant pointer on every grant and an accept pointer on
/// every accept; iSLIP moves both only for accepted grants. Given the
/// same mask and request sequence, the reference and the optimised
/// scheduler must produce identical matchings slot after slot, which a
/// multi-slot run cannot do unless their pointers agree too.
#[derive(Clone, Debug)]
pub struct ReferenceRoundRobin {
    n: usize,
    iterations: usize,
    update: PointerUpdate,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    healthy_in: Vec<bool>,
    healthy_out: Vec<bool>,
}

impl ReferenceRoundRobin {
    /// Mirrors `RoundRobinMatchingN::islip`.
    pub fn islip(n: usize, iterations: usize) -> Self {
        Self::with_update(n, iterations, PointerUpdate::OnAcceptFirstIteration)
    }

    /// Mirrors `RoundRobinMatchingN::rrm`.
    pub fn rrm(n: usize, iterations: usize) -> Self {
        Self::with_update(n, iterations, PointerUpdate::Always)
    }

    /// Mirrors `RoundRobinMatchingN::with_update`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `iterations == 0`.
    pub fn with_update(n: usize, iterations: usize, update: PointerUpdate) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(iterations > 0, "iteration count must be at least 1");
        Self {
            n,
            iterations,
            update,
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            healthy_in: vec![true; n],
            healthy_out: vec![true; n],
        }
    }

    /// Replaces the healthy-port mask, as `Scheduler::set_port_mask` does:
    /// a failed port never requests, grants, accepts or moves a pointer.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not `n` ports wide.
    pub fn set_port_mask<const W: usize>(&mut self, mask: PortMaskN<W>) {
        assert_eq!(mask.n(), self.n, "mask size does not match the switch");
        self.healthy_in = (0..self.n)
            .map(|i| mask.active_inputs().contains(i))
            .collect();
        self.healthy_out = (0..self.n)
            .map(|j| mask.active_outputs().contains(j))
            .collect();
    }

    /// Schedules one slot.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not `n`×`n`.
    pub fn schedule<const W: usize>(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        let n = self.n;
        assert_eq!(requests.n(), n, "request matrix must be n x n");
        let req = |i: usize, j: usize| requests.has(InputPort::new(i), OutputPort::new(j));
        let mut out_of: Vec<Option<usize>> = vec![None; n];
        let mut in_of: Vec<Option<usize>> = vec![None; n];
        for iteration in 1..=self.iterations {
            // Grant phase, ascending outputs: scan the inputs from the
            // pointer, wrapping, for the first eligible requester.
            let mut grants: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut any = false;
            for (j, holder) in in_of.iter().enumerate() {
                if !self.healthy_out[j] || holder.is_some() {
                    continue;
                }
                let Some(i) = (0..n)
                    .map(|k| (self.grant_ptr[j] + k) % n)
                    .find(|&i| self.healthy_in[i] && out_of[i].is_none() && req(i, j))
                else {
                    continue;
                };
                any = true;
                grants[i].push(j);
                if self.update == PointerUpdate::Always && iteration == 1 {
                    self.grant_ptr[j] = (i + 1) % n;
                }
            }
            if !any {
                break;
            }

            // Accept phase, ascending inputs; `grants[i]` is ascending.
            for (i, mine) in grants.iter().enumerate() {
                if mine.is_empty() {
                    continue;
                }
                let ptr = self.accept_ptr[i];
                let j = mine.iter().copied().find(|&g| g >= ptr).unwrap_or(mine[0]);
                out_of[i] = Some(j);
                in_of[j] = Some(i);
                if iteration == 1 {
                    self.accept_ptr[i] = (j + 1) % n;
                    if self.update == PointerUpdate::OnAcceptFirstIteration {
                        self.grant_ptr[j] = (i + 1) % n;
                    }
                }
            }
        }

        let mut m = MatchingN::new(n);
        for (i, j) in out_of.iter().enumerate() {
            if let Some(j) = *j {
                m.pair(InputPort::new(i), OutputPort::new(j))
                    .expect("reference round-robin produced a conflicting matching");
            }
        }
        m
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
    fn trace_records_are_consistent() {
        // Figure 2's pattern: output 1 has requesters {0, 1, 2}.
        let reqs = RequestMatrix::from_pairs(4, [(0, 1), (0, 3), (1, 1), (2, 1), (3, 3)]);
        let mut pim =
            ReferencePim::with_options(4, 1, IterationLimit::ToCompletion, AcceptPolicy::Random);
        let (m, trace) = pim.schedule_traced(&reqs);
        assert!(m.is_maximal(&reqs));
        assert_eq!(trace.last().map(|r| r.unresolved_after), Some(0));
        // Accepted pairs across all iterations reconstruct the matching.
        let total_accepts: usize = trace.iter().map(|r| r.accepts.len()).sum();
        assert_eq!(total_accepts, m.len());
        assert_eq!(trace[0].requests[1], vec![0, 1, 2]);
        // Grants point only at requesters.
        for (k, r) in trace.iter().enumerate() {
            assert_eq!(r.iteration, k + 1);
            for (i, grants) in r.grants.iter().enumerate() {
                for &j in grants {
                    assert!(r.requests[j].contains(&i));
                }
            }
        }
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
