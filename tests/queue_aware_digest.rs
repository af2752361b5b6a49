//! Pinned decision streams for the queue-aware MWM schedulers.
//!
//! Exact max-weight matching usually has several optimal matchings at a
//! slot, and which one the solver returns decides which cells leave and
//! hence every delay the engines record. These tests run `Mwm::lqf` and
//! `Mwm::ocf` near saturation on the scalar `CrossbarSwitch`, pin a
//! digest of the run, and demand the batched `BatchCrossbar` reproduce
//! it — so a tie-break change in the solver, or a queue-observation feed
//! that differs between the engines, fails a plain `cargo test`.

use an2::sched::rng::{SelectRng, Xoshiro256};
use an2::sched::{InputPort, Mwm, OutputPort};
use an2::sim::batch::BatchCrossbar;
use an2::sim::cell::Arrival;
use an2::sim::metrics::SwitchReport;
use an2::sim::model::SwitchModel;
use an2::sim::switch::CrossbarSwitch;

const N: usize = 16;
const LOAD: f64 = 0.95;
const SLOTS: u64 = 2_000;
/// The report is folded into the digest every this many slots, so the
/// digest follows the run rather than only its end state.
const CHECKPOINT: u64 = 250;

/// FNV-1a over the fields of a report that the matchings decide.
fn mix_report(h: &mut u64, r: &SwitchReport, queued: usize) {
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    mix(r.arrivals);
    mix(r.departures);
    mix(r.peak_occupancy as u64);
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
    mix(r.delay.percentile(0.99));
    mix(queued as u64);
}

/// Runs `SLOTS` slots of Bernoulli(`LOAD`) uniform pair arrivals, the
/// one-flow-per-pair regime both engines share.
fn run_digest(model: &mut impl SwitchModel, seed: u64) -> u64 {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    model.start_measurement();
    for slot in 1..=SLOTS {
        let mut arrivals = Vec::new();
        for i in 0..N {
            if rng.bernoulli(LOAD) {
                let j = rng.index(N);
                arrivals.push(Arrival::pair(N, InputPort::new(i), OutputPort::new(j)));
            }
        }
        model.step(&arrivals);
        if slot % CHECKPOINT == 0 {
            mix_report(&mut h, &model.report(), model.queued());
        }
    }
    h
}

fn check(make: fn(usize) -> Mwm, seed: u64, pinned: u64, name: &str) {
    let scalar = run_digest(&mut CrossbarSwitch::with_ports(N, make(N)), seed);
    let batch = run_digest(&mut BatchCrossbar::new(N, make(N)), seed);
    assert_eq!(
        scalar, pinned,
        "{name}: scalar digest {scalar:#018x} moved from the pinned value"
    );
    assert_eq!(
        batch, scalar,
        "{name}: batch engine diverged from the scalar engine"
    );
}

#[test]
fn mwm_lqf_decision_stream_is_pinned_on_both_engines() {
    check(Mwm::lqf, 0x51f0_0095, 0x7d08_44ac_6d87_d3c4, "mwm-lqf");
}

#[test]
fn mwm_ocf_decision_stream_is_pinned_on_both_engines() {
    check(Mwm::ocf, 0x0cf0_0095, 0x395f_8257_68e1_1a99, "mwm-ocf");
}
