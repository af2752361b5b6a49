//! Each production scheduler has one implementation of its
//! request–grant–accept loop; its slow textbook twin lives in
//! `an2-verify` as an oracle. This cheap root-level check runs both side
//! by side for a few dozen slots and demands identical matchings, so the
//! tier-1 suite covers the one-path claim itself. The exhaustive
//! versions (more radii, proptested masks, pinned digests) are in
//! `crates/an2-verify/tests/`.

use an2::sched::islip::RoundRobinMatching;
use an2::sched::rng::{SelectRng, Xoshiro256};
use an2::sched::{
    AcceptPolicy, IterationLimit, Pim, PortMask, RequestMatrix, Scheduler, WidePim,
    WideRequestMatrix,
};
use an2_verify::{ReferencePim, ReferenceRoundRobin};

const SLOTS: usize = 40;

/// A mask failing two inputs and two outputs picked from `rng`.
fn degraded(n: usize, rng: &mut Xoshiro256) -> PortMask {
    let mut mask = PortMask::all(n);
    for _ in 0..2 {
        mask.fail_input(rng.index(n));
        mask.fail_output(rng.index(n));
    }
    mask
}

#[test]
fn pim_matches_reference_for_every_accept_policy_masked_and_unmasked() {
    let n = 16;
    for accept in [
        AcceptPolicy::Random,
        AcceptPolicy::RoundRobin,
        AcceptPolicy::LowestIndex,
    ] {
        for masked in [false, true] {
            let mut rng = Xoshiro256::seed_from(0x0_5AC1E);
            let limit = IterationLimit::Fixed(4);
            let mut pim = Pim::with_options(n, 7, limit, accept);
            let mut oracle = ReferencePim::with_options(n, 7, limit, accept);
            if masked {
                let mask = degraded(n, &mut rng);
                pim.set_port_mask(mask);
                oracle.set_port_mask(mask);
            }
            for slot in 0..SLOTS {
                let reqs = RequestMatrix::random(n, [0.2, 0.6, 1.0][slot % 3], &mut rng);
                assert_eq!(
                    pim.schedule(&reqs),
                    oracle.schedule(&reqs),
                    "{accept:?} masked={masked} slot {slot}"
                );
            }
        }
    }
}

#[test]
fn wide_pim_matches_reference_at_1024_ports() {
    let n = 1024;
    let mut rng = Xoshiro256::seed_from(0x0_5AC1E);
    let mut pim = WidePim::new(n, 7);
    let mut oracle = ReferencePim::new(n, 7);
    for slot in 0..8 {
        let reqs = WideRequestMatrix::random(n, 0.002, &mut rng);
        assert_eq!(pim.schedule(&reqs), oracle.schedule(&reqs), "slot {slot}");
    }
}

#[test]
fn masked_islip_and_rrm_match_reference() {
    let n = 16;
    for islip in [true, false] {
        let mut rng = Xoshiro256::seed_from(0x0_5AC1E);
        let (mut fast, mut oracle) = if islip {
            (
                RoundRobinMatching::islip(n, 4),
                ReferenceRoundRobin::islip(n, 4),
            )
        } else {
            (
                RoundRobinMatching::rrm(n, 4),
                ReferenceRoundRobin::rrm(n, 4),
            )
        };
        let mask = degraded(n, &mut rng);
        fast.set_port_mask(mask);
        oracle.set_port_mask(mask);
        for slot in 0..SLOTS {
            let reqs = RequestMatrix::random(n, [0.2, 0.6, 1.0][slot % 3], &mut rng);
            assert_eq!(
                fast.schedule(&reqs),
                oracle.schedule(&reqs),
                "islip={islip} slot {slot}"
            );
        }
    }
}
