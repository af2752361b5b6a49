//! Production-vs-oracle parity properties for the active-pair scheduling
//! path.
//!
//! The wide-radix schedulers run a sparse grant/accept walk (active
//! column pruning, nonzero-word pointer successor lookup, hybrid eligible
//! assembly); the plain-`Vec` oracles `ReferencePim` and
//! `ReferenceRoundRobin` sweep every port. These properties pin the
//! central claim of the sparse path — it is *decision- and
//! RNG-draw-identical* to the textbook loop — over random request
//! matrices, iteration budgets, accept policies and random port fault
//! masks, at widths up to the full 1024-port radix. Parity is checked on
//! a running digest of every matched pair in every slot, so a single
//! diverging grant anywhere in a multi-slot run fails the property.

use an2_sched::islip::WideRoundRobinMatching;
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{
    AcceptPolicy, IterationLimit, MatchingN, RequestMatrixN, Scheduler, WidePim, WidePortMask,
};
use an2_verify::{ReferencePim, ReferenceRoundRobin};
use proptest::prelude::*;

const W: usize = 16;

/// FNV-1a over a matching's pairs, chained onto `acc` so one digest can
/// span a whole multi-slot run.
fn digest_matching(mut acc: u64, m: &MatchingN<W>) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    acc ^= m.len() as u64;
    acc = acc.wrapping_mul(PRIME);
    for (i, j) in m.pairs() {
        acc ^= (i.index() as u64) << 32 | j.index() as u64;
        acc = acc.wrapping_mul(PRIME);
    }
    acc
}

/// Random request matrices from the production generator, sized up to the
/// full wide radix. Generating 1024×1024 edge lists through proptest's
/// own collections would dominate the run, so the strategy draws only
/// (n, density, seed) and defers the Bernoulli fill to
/// [`RequestMatrixN::random`].
fn matrix_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (
        prop_oneof![Just(16usize), Just(70), Just(256), Just(1024)],
        prop_oneof![Just(0.001f64), Just(0.01), Just(0.1), Just(0.6)],
        any::<u64>(),
    )
}

/// A fault mask failing a few random inputs and outputs (possibly none).
fn masked(n: usize, seed: u64) -> WidePortMask {
    let mut mask = WidePortMask::all(n);
    let mut rng = Xoshiro256::seed_from(seed);
    let failures = rng.index(4);
    for _ in 0..failures {
        mask.fail_input(rng.index(n));
        mask.fail_output(rng.index(n));
    }
    mask
}

proptest! {
    /// PIM's fused path (sparse eligible assembly, inline grant lists)
    /// against `ReferencePim`, sharing per-port RNG state across slots:
    /// the matchings — and therefore every random draw — must agree
    /// exactly.
    #[test]
    fn pim_sparse_path_matches_reference(
        params in matrix_params(),
        iters in 1usize..=5,
        accept in prop_oneof![
            Just(AcceptPolicy::Random),
            Just(AcceptPolicy::RoundRobin),
            Just(AcceptPolicy::LowestIndex),
        ],
        sched_seed in any::<u64>(),
        mask_seed in any::<u64>(),
        use_mask in proptest::bool::ANY,
    ) {
        let (n, density, seed) = params;
        let mut pool_rng = Xoshiro256::seed_from(seed);
        let limit = IterationLimit::Fixed(iters);
        let mut fast: WidePim = WidePim::with_options(n, sched_seed, limit, accept);
        let mut slow = ReferencePim::<W>::with_options(n, sched_seed, limit, accept);
        if use_mask {
            let mask = masked(n, mask_seed);
            fast.set_port_mask(mask);
            slow.set_port_mask(mask);
        }
        let (mut df, mut ds) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        for _ in 0..4 {
            let reqs = RequestMatrixN::<W>::random(n, density, &mut pool_rng);
            df = digest_matching(df, &fast.schedule(&reqs));
            ds = digest_matching(ds, &slow.schedule(&reqs));
            prop_assert_eq!(df, ds);
        }
    }

    /// iSLIP and RRM: the sparse `schedule` against `ReferenceRoundRobin`
    /// (a pointer drift would only surface slots later, so the run is
    /// multi-slot and the digest spans all of it).
    #[test]
    fn islip_and_rrm_sparse_matches_reference(
        params in matrix_params(),
        iters in 1usize..=4,
        is_islip in proptest::bool::ANY,
        mask_seed in any::<u64>(),
        use_mask in proptest::bool::ANY,
    ) {
        let (n, density, seed) = params;
        let mut pool_rng = Xoshiro256::seed_from(seed);
        let (mut fast, mut slow) = if is_islip {
            (WideRoundRobinMatching::islip(n, iters), ReferenceRoundRobin::islip(n, iters))
        } else {
            (WideRoundRobinMatching::rrm(n, iters), ReferenceRoundRobin::rrm(n, iters))
        };
        if use_mask {
            let mask = masked(n, mask_seed);
            fast.set_port_mask(mask);
            slow.set_port_mask(mask);
        }
        let (mut df, mut ds) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        for _ in 0..4 {
            let reqs = RequestMatrixN::<W>::random(n, density, &mut pool_rng);
            df = digest_matching(df, &fast.schedule(&reqs));
            ds = digest_matching(ds, &slow.schedule(&reqs));
            prop_assert_eq!(df, ds);
        }
    }
}
