//! Property: the batched SoA engine is bit-identical to the scalar
//! object-walking engine in the one-flow-per-pair regime.
//!
//! [`BatchCrossbar`] replaces `CrossbarSwitch`'s per-cell heap queues with
//! flat per-pair FIFOs of arrival slots plus incremental request-matrix
//! deltas. That rewrite is only sound if *nothing observable changes*:
//! same arrivals admitted, same requests presented, same matchings drawn
//! (the schedulers are seeded identically and must consume identical
//! randomness), same departures and delays recorded. The test digests the
//! full [`SwitchReport`] — the same field walk the pinned golden digests
//! in `determinism.rs` use — and demands equality across schedulers,
//! switch sizes and offered loads.

use an2_sched::islip::RoundRobinMatchingN;
use an2_sched::maximum::MaximumMatchingN;
use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{AcceptPolicy, IterationLimit, Mwm, Pim, Scheduler, Serenade};
use an2_sim::batch::BatchCrossbar;
use an2_sim::cell::Arrival;
use an2_sim::metrics::SwitchReport;
use an2_sim::model::SwitchModel;
use an2_sim::switch::CrossbarSwitch;
use an2_sched::{InputPort, OutputPort};
use proptest::prelude::*;

/// FNV-1a over the full report, matching `determinism.rs`'s field walk.
fn digest_report(r: &SwitchReport, queued: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    mix(r.slots);
    mix(r.arrivals);
    mix(r.departures);
    mix(r.peak_occupancy as u64);
    mix(r.final_occupancy as u64);
    for &d in &r.departures_per_output {
        mix(d);
    }
    for &(flow, count) in &r.departures_per_flow {
        mix(flow);
        mix(count);
    }
    mix(r.delay.count());
    mix(r.delay.max());
    mix(r.delay.mean().to_bits());
    mix(r.delay.percentile(0.5));
    mix(queued as u64);
    h
}

/// Identically-seeded scheduler pair for each configuration under test.
fn make_scheduler(which: usize, n: usize, seed: u64) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(Pim::new(n, seed)),
        1 => Box::new(Pim::with_options(
            n,
            seed,
            IterationLimit::ToCompletion,
            AcceptPolicy::Random,
        )),
        2 => Box::new(RoundRobinMatchingN::islip(n, 4)),
        3 => Box::new(RoundRobinMatchingN::rrm(n, 4)),
        4 => Box::new(MaximumMatchingN::new()),
        5 => Box::new(Mwm::lqf(n)),
        6 => Box::new(Mwm::ocf(n)),
        _ => Box::new(Serenade::new(n, seed)),
    }
}

/// Bernoulli(load) arrivals with uniform destinations — the pair-flow
/// convention both engines share.
fn arrivals_for(n: usize, load: f64, rng: &mut Xoshiro256) -> Vec<Arrival> {
    let mut batch = Vec::new();
    for i in 0..n {
        if rng.bernoulli(load) {
            batch.push(Arrival::pair(
                n,
                InputPort::new(i),
                OutputPort::new(rng.index(n)),
            ));
        }
    }
    batch
}

fn run_digest(model: &mut impl SwitchModel, n: usize, load: f64, seed: u64) -> u64 {
    let mut rng = Xoshiro256::seed_from(seed);
    for _ in 0..32 {
        model.step(&arrivals_for(n, load, &mut rng));
    }
    model.start_measurement();
    for _ in 0..256 {
        model.step(&arrivals_for(n, load, &mut rng));
    }
    digest_report(&model.report(), model.queued())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_engine_matches_scalar_digest(
        n_idx in 0usize..3,
        which in 0usize..8,
        load_pct in 10u32..=100,
        seed in any::<u64>(),
    ) {
        let n = [4usize, 16, 64][n_idx];
        let load = load_pct as f64 / 100.0;
        let mut batch = BatchCrossbar::new(n, make_scheduler(which, n, seed));
        let mut scalar = CrossbarSwitch::with_ports(n, make_scheduler(which, n, seed));
        let db = run_digest(&mut batch, n, load, seed ^ 0x5eed);
        let ds = run_digest(&mut scalar, n, load, seed ^ 0x5eed);
        prop_assert_eq!(
            db, ds,
            "batch and scalar engines diverged: scheduler {} n {} load {}",
            which, n, load
        );
    }
}

/// Every queue-aware scheduler, at every size, near saturation where
/// queues are deep and the weights decide the matching: the property
/// above samples schedulers at random, this pins each one.
#[test]
fn queue_aware_schedulers_match_scalar_digest() {
    for which in 5..8 {
        for n in [4usize, 16] {
            for load in [0.6, 0.97] {
                let seed = 0xfeed ^ (which as u64) ^ ((n as u64) << 8);
                let mut batch = BatchCrossbar::new(n, make_scheduler(which, n, seed));
                let mut scalar = CrossbarSwitch::with_ports(n, make_scheduler(which, n, seed));
                assert_eq!(
                    run_digest(&mut batch, n, load, seed),
                    run_digest(&mut scalar, n, load, seed),
                    "batch and scalar engines diverged: scheduler {which} n {n} load {load}"
                );
            }
        }
    }
}
