//! Differential oracles: every optimised implementation re-checked
//! against a naive reference on random instances, and simulated delays
//! cross-checked against the paper's analytic formulas.

use an2_sched::maximum::hopcroft_karp;
use an2_sched::pim::{AcceptPolicy, IterationLimit};
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{FrameSchedule, InputPort, OutputPort, Pim, RequestMatrix, Scheduler};
use an2_sim::analytic::{hol_saturation_throughput, output_queueing_mean_delay};
use an2_sched::fifo::FifoPriority;
use an2_sim::fifo_switch::FifoSwitch;
use an2_sim::output_queued::OutputQueuedSwitch;
use an2_sim::sim::{simulate, SimConfig};
use an2_sim::traffic::RateMatrixTraffic;
use an2_sched::{MatchingN, Mwm, MwmN, PortMaskN, RequestMatrixN, Serenade, WeightPolicy};
use an2_verify::oracle::{
    brute_force_max_weight_matching, frame_demand_feasible, kuhn_maximum_matching_size,
    within_confidence, ReferenceMwm, ReferencePim,
};

/// Draws an identical instance in both representations.
fn random_instance(n: usize, density: f64, rng: &mut Xoshiro256) -> (RequestMatrix, Vec<Vec<bool>>) {
    let bools: Vec<Vec<bool>> = (0..n)
        .map(|_| (0..n).map(|_| rng.bernoulli(density)).collect())
        .collect();
    let reqs = RequestMatrix::from_fn(n, |i, j| bools[i][j]);
    (reqs, bools)
}

/// The core differential: the optimised `Pim` and the naive
/// `ReferencePim`, seeded identically, must produce *identical* matchings
/// slot after slot — for every accept policy and iteration limit, across
/// densities from empty to full. Any divergence convicts one of them.
#[test]
fn optimised_pim_equals_reference_pim_exactly() {
    let n = 16;
    let policies = [
        AcceptPolicy::Random,
        AcceptPolicy::RoundRobin,
        AcceptPolicy::LowestIndex,
    ];
    let limits = [
        IterationLimit::Fixed(1),
        IterationLimit::Fixed(4),
        IterationLimit::ToCompletion,
    ];
    for &policy in &policies {
        for &limit in &limits {
            let seed = 0xD1FF ^ (policy as u64) << 8;
            let mut fast = Pim::with_options(n, seed, limit, policy);
            let mut slow = ReferencePim::with_options(n, seed, limit, policy);
            let mut traffic_rng = Xoshiro256::seed_from(0xABC);
            let densities = [0.1, 0.5, 0.9, 1.0, 0.0];
            for slot in 0..200u64 {
                let density = densities[(slot as usize) % densities.len()];
                let (reqs, bools) = random_instance(n, density, &mut traffic_rng);
                let m = fast.schedule(&reqs);
                let r = slow.schedule(&bools);
                for (i, ri) in r.iter().enumerate() {
                    assert_eq!(
                        m.output_of(InputPort::new(i)).map(|j| j.index()),
                        *ri,
                        "policy {policy:?} limit {limit:?} slot {slot} input {i} diverged"
                    );
                }
            }
        }
    }
}

/// Hopcroft–Karp (word-parallel bitset rewrite) vs Kuhn (textbook
/// recursion): identical maximum-matching size on every instance.
#[test]
fn hopcroft_karp_matches_kuhn_sizes() {
    let mut rng = Xoshiro256::seed_from(0x7357);
    for trial in 0..300u64 {
        let n = 1 + (rng.index(24));
        let density = rng.uniform_f64();
        let (reqs, _) = random_instance(n, density, &mut rng);
        let hk = hopcroft_karp(&reqs);
        assert!(hk.respects(&reqs));
        assert!(hk.is_maximal(&reqs));
        assert_eq!(
            hk.len(),
            kuhn_maximum_matching_size(&reqs),
            "trial {trial}: n={n} density={density}"
        );
    }
}

/// The incremental Slepian–Duguid insert vs exhaustive backtracking:
/// a random demand matrix is admitted by `FrameSchedule` exactly when the
/// brute-force search can decompose it into frame slots — and both agree
/// with the load condition the theorem predicts.
#[test]
fn frame_schedule_matches_brute_force_feasibility() {
    let mut rng = Xoshiro256::seed_from(0xF3A5);
    for trial in 0..150u64 {
        let n = 2 + rng.index(3); // 2..=4
        let frame_len = 2 + rng.index(3); // 2..=4
        let demand: Vec<Vec<usize>> = (0..n)
            .map(|_| (0..n).map(|_| rng.index(frame_len + 1)).collect())
            .collect();

        let max_load = (0..n)
            .map(|k| {
                let row: usize = demand[k].iter().sum();
                let col: usize = (0..n).map(|i| demand[i][k]).sum();
                row.max(col)
            })
            .max()
            .unwrap();
        let feasible_by_load = max_load <= frame_len;

        let feasible_by_search = frame_demand_feasible(&demand, frame_len);
        assert_eq!(
            feasible_by_search, feasible_by_load,
            "trial {trial}: brute force disagrees with the Slepian–Duguid load condition"
        );

        let mut fs = FrameSchedule::new(n, frame_len);
        let mut admitted_all = true;
        'reserve: for (i, row) in demand.iter().enumerate() {
            for (j, &cells) in row.iter().enumerate() {
                if cells > 0
                    && fs
                        .reserve(InputPort::new(i), OutputPort::new(j), cells)
                        .is_err()
                {
                    admitted_all = false;
                    break 'reserve;
                }
            }
        }
        assert_eq!(
            admitted_all, feasible_by_search,
            "trial {trial}: FrameSchedule admission disagrees with brute force"
        );
        if admitted_all {
            assert!(fs.verify(), "trial {trial}: admitted schedule inconsistent");
        }
    }
}

/// Builds an MWM scheduler whose effective Q-matrix weight for each
/// requested pair is exactly `weights[i][j]` (≥ 1), by feeding the
/// policy-appropriate observation: LQF weighs the depth, OCF weighs
/// `age + 1`.
fn weighted_mwm(n: usize, policy: WeightPolicy, reqs: &RequestMatrix, weights: &[Vec<u32>]) -> Mwm {
    let mut s = Mwm::new(n, policy);
    for (i, j) in reqs.pairs() {
        let w = weights[i.index()][j.index()];
        match policy {
            WeightPolicy::Lqf => s.observe_queue(i, j, w, 0),
            WeightPolicy::Ocf => s.observe_queue(i, j, 0, w - 1),
        }
    }
    s
}

/// Runs one MWM-vs-brute-force differential: the solver's matching must
/// be legal, maximal over the requests, and achieve **exactly** the
/// DP-optimal total weight.
fn assert_mwm_optimal(
    n: usize,
    policy: WeightPolicy,
    reqs: &RequestMatrix,
    weights: &[Vec<u32>],
    label: &str,
) {
    let mut s = weighted_mwm(n, policy, reqs, weights);
    let m = s.schedule(reqs);
    assert!(m.respects(reqs), "{label}: illegal matching");
    assert!(m.is_maximal(reqs), "{label}: non-maximal matching");
    let achieved: i64 = m
        .pairs()
        .map(|(i, j)| i64::from(weights[i.index()][j.index()]))
        .sum();
    let optimal = brute_force_max_weight_matching(reqs, &|i, j| i64::from(weights[i][j]));
    assert_eq!(achieved, optimal, "{label}: achieved {achieved} vs optimal {optimal}");
}

/// The MWM differential, exhaustive regime: **every** request matrix on
/// switches up to 3×3 (2^9 patterns), under the all-ones weighting and a
/// deterministic non-uniform weighting, for both LQF and OCF. Beyond
/// N=3 exhaustion is astronomically infeasible (2^(N²) patterns); the
/// random tests below cover the larger radii.
#[test]
fn mwm_matches_brute_force_on_every_tiny_request_matrix() {
    for n in 1usize..=3 {
        let cells = n * n;
        for pattern in 0u32..(1 << cells) {
            let reqs = RequestMatrix::from_fn(n, |i, j| pattern & (1 << (i * n + j)) != 0);
            let flat: Vec<Vec<u32>> = (0..n)
                .map(|i| (0..n).map(|j| ((i * 7 + j * 13) % 9 + 1) as u32).collect())
                .collect();
            let ones = vec![vec![1u32; n]; n];
            for weights in [&ones, &flat] {
                for policy in [WeightPolicy::Lqf, WeightPolicy::Ocf] {
                    let label = format!("n={n} pattern={pattern:#b} policy={policy:?}");
                    assert_mwm_optimal(n, policy, &reqs, weights, &label);
                }
            }
        }
    }
}

/// The MWM differential, dense-random regime: ≥ 1000 random (pattern,
/// weight) instances across N = 4..=8 — per policy — spanning densities
/// from near-empty to full.
#[test]
fn mwm_matches_brute_force_on_random_small_switches() {
    let mut rng = Xoshiro256::seed_from(0x3A11_1992);
    for policy in [WeightPolicy::Lqf, WeightPolicy::Ocf] {
        for n in 4usize..=8 {
            for trial in 0..250u64 {
                let density = rng.uniform_f64();
                let reqs = RequestMatrix::random(n, density, &mut rng);
                let weights: Vec<Vec<u32>> = (0..n)
                    .map(|_| (0..n).map(|_| 1 + rng.index(16) as u32).collect())
                    .collect();
                let label = format!("n={n} trial={trial} policy={policy:?}");
                assert_mwm_optimal(n, policy, &reqs, &weights, &label);
            }
        }
    }
}

/// The MWM differential, sparse-wide regime: ≥ 1000 random instances at
/// radii up to N=32. The oracle's DP is exponential in the number of
/// *distinct requested columns*, so instances bound that footprint (≤ 10
/// columns) while rows, weights, and the column choice stay random —
/// exactly the sparse shape the wide engine schedules.
#[test]
fn mwm_matches_brute_force_on_sparse_wide_switches() {
    let mut rng = Xoshiro256::seed_from(0x3A11_0032);
    for trial in 0..1000u64 {
        let policy = if trial % 2 == 0 { WeightPolicy::Lqf } else { WeightPolicy::Ocf };
        let n = 9 + rng.index(24); // 9..=32
        let footprint = 1 + rng.index(10);
        let cols: Vec<usize> = (0..footprint).map(|_| rng.index(n)).collect();
        let reqs = RequestMatrix::from_fn(n, |_, j| {
            cols.contains(&j) && rng.bernoulli(0.35)
        });
        let weights: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..n).map(|_| 1 + rng.index(100) as u32).collect())
            .collect();
        let label = format!("n={n} trial={trial} policy={policy:?}");
        assert_mwm_optimal(n, policy, &reqs, &weights, &label);
    }
}

/// Asserts that two matchings pair every input identically.
fn assert_same_pairs<const W: usize>(
    fast: &MatchingN<W>,
    slow: &MatchingN<W>,
    n: usize,
    label: &str,
) {
    for i in 0..n {
        let i = InputPort::new(i);
        assert_eq!(
            fast.output_of(i),
            slow.output_of(i),
            "{label}: input {} diverged from the reference",
            i.index()
        );
    }
}

/// Drives the production solver and [`ReferenceMwm`] through `slots`
/// consecutive calls that share one persistent Q-matrix, and demands the
/// same matching pair for pair on every call. Each slot observes only a
/// random share of the requested pairs, so stale weights from earlier
/// slots and never-observed pairs (weight 1) both stay in play.
/// Observed weights land in 1..=3, so ties are everywhere and only the
/// identical tie-break order survives. With probability `mask_p` a slot
/// fails a few random ports first.
fn run_mwm_sequence<const W: usize>(
    n: usize,
    policy: WeightPolicy,
    slots: usize,
    mask_p: f64,
    make_requests: &mut dyn FnMut(&mut Xoshiro256) -> RequestMatrixN<W>,
    rng: &mut Xoshiro256,
    label: &str,
) {
    let mut fast = MwmN::<W>::new(n, policy);
    let mut slow = ReferenceMwm::new(n, policy);
    for slot in 0..slots {
        let reqs = make_requests(rng);
        for (i, j) in reqs.pairs() {
            if rng.bernoulli(0.7) {
                let (depth, age) = (rng.index(4) as u32, rng.index(3) as u32);
                fast.observe_queue(i, j, depth, age);
                slow.observe_queue(i.index(), j.index(), depth, age);
            }
        }
        let mut mask = PortMaskN::<W>::all(n);
        if rng.bernoulli(mask_p) {
            for _ in 0..=rng.index(3) {
                mask.fail_input(rng.index(n));
                mask.fail_output(rng.index(n));
            }
        }
        fast.set_port_mask(mask);
        let got = fast.schedule(&reqs);
        let want = slow.schedule(&reqs, mask.active_inputs(), mask.active_outputs());
        assert_same_pairs(&got, &want, n, &format!("{label} slot={slot}"));
    }
}

/// The production MWM solver (edge list, dirty-row relaxation) against
/// the full-sweep reference it replaced, at every radix 2..=64: the
/// *same matching*, not just the same weight. The brute-force tests
/// above check only the total, so a changed tie-break among equally
/// heavy matchings would slip past them; this one convicts it.
#[test]
fn mwm_equals_full_sweep_reference_pair_for_pair() {
    let mut rng = Xoshiro256::seed_from(0x5EE9_1992);
    for n in 2usize..=64 {
        for policy in [WeightPolicy::Lqf, WeightPolicy::Ocf] {
            let density = 0.05 + rng.uniform_f64() * 0.95;
            let label = format!("n={n} policy={policy:?} density={density:.2}");
            run_mwm_sequence::<4>(
                n,
                policy,
                8,
                0.3,
                &mut |rng| RequestMatrix::random(n, density, rng),
                &mut rng,
                &label,
            );
        }
    }
}

/// The same pair-for-pair differential on the wide width at N=520 (nine
/// bitset words, so rows and masks span word boundaries), in the sparse
/// regime the wide engine schedules.
#[test]
fn wide_mwm_equals_full_sweep_reference_on_sparse_520() {
    let n = 520;
    let mut rng = Xoshiro256::seed_from(0x5EE9_0520);
    for policy in [WeightPolicy::Lqf, WeightPolicy::Ocf] {
        for density in [0.002, 0.01] {
            let label = format!("wide n={n} policy={policy:?} density={density}");
            run_mwm_sequence::<16>(
                n,
                policy,
                6,
                0.5,
                &mut |rng| RequestMatrixN::random(n, density, rng),
                &mut rng,
                &label,
            );
        }
    }
}

/// SERENADE's merge contract on every case: both random proposals are
/// valid maximal matchings, the merged result is a valid matching, and
/// its Q-matrix weight weakly improves on **both** inputs.
#[test]
fn serenade_merge_is_valid_and_weakly_improving() {
    let mut rng = Xoshiro256::seed_from(0x5E3E_1992);
    for trial in 0..500u64 {
        let n = 2 + rng.index(31); // 2..=32
        let density = rng.uniform_f64();
        let reqs = RequestMatrix::random(n, density, &mut rng);
        let mut s = Serenade::new(n, trial);
        for (i, j) in reqs.pairs() {
            s.observe_queue(i, j, 1 + rng.index(32) as u32, 0);
        }
        let (a, b, merged) = s.schedule_with_proposals(&reqs);
        for (m, which) in [(&a, "A"), (&b, "B")] {
            assert!(m.respects(&reqs), "trial {trial}: proposal {which} illegal");
            assert!(m.is_maximal(&reqs), "trial {trial}: proposal {which} not maximal");
        }
        assert!(merged.respects(&reqs), "trial {trial}: merge illegal");
        let (wa, wb, wm) = (s.weight_of(&a), s.weight_of(&b), s.weight_of(&merged));
        assert!(
            wm >= wa.max(wb),
            "trial {trial}: merged weight {wm} < max({wa}, {wb})"
        );
    }
}

/// Simulated perfect-output-queueing delay vs the paper's M/D/1-based
/// closed form, within confidence bounds.
#[test]
fn output_queueing_delay_matches_analytic_formula() {
    let n = 16;
    let cfg = SimConfig {
        warmup_slots: 4_000,
        measure_slots: 30_000,
    };
    for rho in [0.4, 0.7, 0.9] {
        let mut sw = OutputQueuedSwitch::new(n);
        let mut t = RateMatrixTraffic::uniform(n, rho, 0x0DD5);
        let measured = simulate(&mut sw, &mut t, cfg).delay.mean();
        let predicted = output_queueing_mean_delay(n, rho);
        assert!(
            within_confidence(measured, predicted, 0.08, 0.05),
            "rho={rho}: simulated {measured} vs analytic {predicted}"
        );
    }
}

/// Simulated FIFO saturation throughput vs Karol's exact finite-N values.
#[test]
fn fifo_saturation_matches_karol_values() {
    let cfg = SimConfig {
        warmup_slots: 4_000,
        measure_slots: 30_000,
    };
    for n in [2usize, 4, 8] {
        let mut sw = FifoSwitch::new(n, FifoPriority::Random, 0xF1F0);
        let mut t = RateMatrixTraffic::uniform(n, 1.0, 0xF1F1);
        let measured = simulate(&mut sw, &mut t, cfg).mean_output_utilization();
        let predicted = hol_saturation_throughput(n).unwrap();
        assert!(
            within_confidence(measured, predicted, 0.03, 0.0),
            "N={n}: simulated saturation {measured} vs Karol {predicted}"
        );
    }
}

/// The sparse active-pair grant walk vs the retained dense kernels at the
/// full wide radix. `schedule` prunes the grant phase to the outputs that
/// actually hold requests (per-column nonzero-word successor lookup,
/// hybrid eligible assembly); `schedule_dense` and PIM's tracked path are
/// the original O(N·W) sweeps, kept precisely so this oracle can convict
/// either side of any divergence — in matchings *and* in hidden state
/// (round-robin pointers, per-port RNG streams), which is why the run is
/// long and the schedulers are never reseeded mid-run.
#[test]
fn sparse_wide_kernels_equal_dense_oracles_exactly() {
    use an2_sched::islip::WideRoundRobinMatching;
    use an2_sched::{WidePim, WideRequestMatrix};

    let n = 1024;
    let mut islip_sparse = WideRoundRobinMatching::islip(n, 4);
    let mut islip_dense = islip_sparse.clone();
    let mut rrm_sparse = WideRoundRobinMatching::rrm(n, 4);
    let mut rrm_dense = rrm_sparse.clone();
    let mut pim_fast = WidePim::new(n, 0x5BA2_1992);
    let mut pim_tracked = pim_fast.clone();
    let mut traffic_rng = Xoshiro256::seed_from(0x5AC7);
    // Sweep the density regimes the sparse path specializes: near-empty
    // (active-set pruning dominates), light (the headline N=1024 operating
    // point), and moderate (the hybrid assembly's dense branch).
    let densities = [0.0, 0.0001, 0.001, 0.01, 0.2];
    for slot in 0..40u64 {
        let density = densities[(slot as usize) % densities.len()];
        let reqs = WideRequestMatrix::random(n, density, &mut traffic_rng);
        assert_eq!(
            islip_sparse.schedule(&reqs),
            islip_dense.schedule_dense(&reqs),
            "islip diverged at slot {slot} density {density}"
        );
        assert_eq!(
            rrm_sparse.schedule(&reqs),
            rrm_dense.schedule_dense(&reqs),
            "rrm diverged at slot {slot} density {density}"
        );
        assert_eq!(
            pim_fast.schedule(&reqs),
            pim_tracked.schedule_with_stats(&reqs).0,
            "pim diverged at slot {slot} density {density}"
        );
    }
}
