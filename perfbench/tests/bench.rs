//! Determinism and traced/untraced agreement of every workload.
//!
//! Each workload runs its full fixed simulated window three times: untraced
//! and traced at the default seed, and untraced at a second seed. The
//! default-seed digests are pinned; any change to a simulated result —
//! departures, the delay distribution, the ring's per-switch ledger —
//! shows here.

use an2_perfbench::{run, Outcome, RunConfig, Workload, DEFAULT_SEED};

fn run_once(w: Workload, seed: u64, trace: bool) -> Outcome {
    let o = run(
        w,
        &RunConfig {
            seed,
            seconds: 0.0,
            trace,
        },
    );
    assert!(
        o.correct(),
        "{} seed {seed} trace {trace}: {:?}",
        w.name(),
        o.failures
    );
    assert!(o.attempted > 0);
    o
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{} has no metric {name}", o.workload.name()))
        .value
}

fn check(w: Workload, pinned: u64) {
    let plain = run_once(w, DEFAULT_SEED, false);
    let traced = run_once(w, DEFAULT_SEED, true);
    let other = run_once(w, DEFAULT_SEED + 1, false);

    assert_eq!(
        plain.digest,
        pinned,
        "{}: digest {:#018x}",
        w.name(),
        plain.digest
    );
    assert_eq!(traced.digest, plain.digest, "{}: traced digest", w.name());
    assert_eq!(traced.counts, plain.counts, "{}: traced counts", w.name());
    assert_eq!(
        metric(&traced, "sched.calls_per_slot"),
        plain.counts.sched_calls as f64 / plain.counts.slots as f64
    );

    assert_ne!(
        other.digest,
        plain.digest,
        "{}: a second seed must change the run",
        w.name()
    );
    assert_ne!(other.counts.arrivals, plain.counts.arrivals);

    for name in [
        "cell_delay_mean_slots",
        "cell_delay_p99_slots",
        "delivered_per_slot",
    ] {
        assert!(metric(&plain, name) > 0.0, "{}: {name}", w.name());
    }
}

#[test]
fn pim16_is_pinned_and_trace_neutral() {
    check(Workload::Pim16, 0xcb91_246e_6075_0b90);
}

#[test]
fn wide1024_is_pinned_and_trace_neutral() {
    check(Workload::Wide1024, 0xd789_778b_88fe_ebca);
}

#[test]
fn mwm16_is_pinned_and_trace_neutral() {
    check(Workload::Mwm16, 0xf936_cdd2_88f7_cbbb);
}

#[test]
fn ring1000_is_pinned_and_trace_neutral() {
    check(Workload::Ring1000, 0xf6ac_a1a2_3294_07d1);
}

#[test]
fn one_seed_repeats_byte_for_byte() {
    for w in [Workload::Pim16, Workload::Ring1000] {
        let a = run_once(w, 7, false);
        let b = run_once(w, 7, false);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counts, b.counts);
        for name in [
            "cell_delay_mean_slots",
            "cell_delay_p99_slots",
            "delivered_per_slot",
        ] {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{name}"
            );
        }
    }
}
