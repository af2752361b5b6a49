//! The two crossbar engines under one fault plan.
//!
//! `CrossbarSwitch` (per-flow VOQs) and `BatchCrossbar` (dense pair table)
//! step the same slot core, so in the one-flow-per-pair regime they must
//! agree on everything a faulted run observes: the report, the fault log,
//! and a balanced conservation ledger after every slot. The plan mixes
//! every fault kind: a link outage, an input-port failure, lost and
//! corrupted arrivals, and a clock-drift excursion.

use an2::sched::rng::{SelectRng, Xoshiro256};
use an2::sched::{InputPort, OutputPort, Pim};
use an2::sim::batch::BatchCrossbar;
use an2::sim::cell::Arrival;
use an2::sim::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, PortSide};
use an2::sim::metrics::SwitchReport;
use an2::sim::model::SwitchModel;
use an2::sim::switch::CrossbarSwitch;

const N: usize = 16;
const LOAD: f64 = 0.7;
const SLOTS: u64 = 600;

/// FNV-1a over every field of a report.
fn digest(r: &SwitchReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    mix(r.slots);
    mix(r.arrivals);
    mix(r.departures);
    mix(r.peak_occupancy as u64);
    mix(r.final_occupancy as u64);
    r.departures_per_output.iter().for_each(|&d| mix(d));
    for &(flow, count) in &r.departures_per_flow {
        mix(flow);
        mix(count);
    }
    mix(r.delay.count());
    mix(r.delay.max());
    mix(r.delay.mean().to_bits());
    h
}

fn plan() -> FaultPlan {
    let at = |slot, kind| FaultEvent { slot, kind };
    FaultPlan::from_events(vec![
        at(50, FaultKind::LinkDown { switch: 0, output: 3 }),
        at(90, FaultKind::LinkUp { switch: 0, output: 3 }),
        at(
            120,
            FaultKind::PortFail {
                switch: 0,
                side: PortSide::Input,
                port: 5,
            },
        ),
        at(
            200,
            FaultKind::PortRecover {
                switch: 0,
                side: PortSide::Input,
                port: 5,
            },
        ),
        at(150, FaultKind::CellDrop { switch: 0, input: 2 }),
        at(151, FaultKind::CellDrop { switch: 0, input: 7 }),
        at(151, FaultKind::CellCorrupt { switch: 0, input: 9 }),
        at(300, FaultKind::CellCorrupt { switch: 0, input: 2 }),
        at(400, FaultKind::ClockDrift { switch: 0, slots: 12 }),
    ])
}

#[test]
fn both_engines_agree_under_a_mixed_fault_plan() {
    let mut scalar = CrossbarSwitch::new(Pim::new(N, 31));
    let mut batch = BatchCrossbar::new(N, Pim::new(N, 31));
    let (mut plan_s, mut plan_b) = (plan(), plan());
    let (mut log_s, mut log_b) = (FaultLog::new(), FaultLog::new());
    let mut rng = Xoshiro256::seed_from(32);
    let mut arrivals = Vec::new();
    for slot in 0..SLOTS {
        arrivals.clear();
        for i in 0..N {
            if rng.bernoulli(LOAD) {
                let j = rng.index(N);
                arrivals.push(Arrival::pair(N, InputPort::new(i), OutputPort::new(j)));
            }
        }
        scalar.step_faulted(&arrivals, &mut plan_s, &mut log_s);
        batch.step_faulted(&arrivals, &mut plan_b, &mut log_b);
        scalar
            .verify_conservation()
            .unwrap_or_else(|e| panic!("scalar, slot {slot}: {e}"));
        batch
            .verify_conservation()
            .unwrap_or_else(|e| panic!("batch, slot {slot}: {e}"));
    }
    assert_eq!(plan_s.remaining(), 0);
    assert_eq!(log_s.applied().len(), 9);
    assert!(log_s.cells_dropped() >= 3, "the arrival faults struck");
    assert_eq!(log_s.digest(), log_b.digest());
    assert_eq!(digest(&scalar.report()), digest(&batch.report()));
    assert_eq!(scalar.queued(), batch.queued());
    batch.verify_drop_ledger().unwrap();
}
