//! Proof that the batch engine's slot loop and the quantile sketch's
//! record path perform no heap allocation in steady state.
//!
//! Same counting-allocator scheme as `an2-sched/tests/zero_alloc.rs`: a
//! thread-local counter wraps the system allocator, the code under test is
//! warmed up (first slots may grow the delay histogram and scheduler
//! scratch to steady-state capacity, and a pair queue deeper than its
//! inline slots spills once), and after that the counter must not move.
//!
//! The `an2-lint` call-graph rule proves the *scheduler* half of the slot
//! loop allocation-free at the source level; this test is the runtime
//! check that covers what the lint's name-resolution cannot see — the
//! engines' own bookkeeping (the batch engine's pair table, the scalar
//! engine's flow slab and VOQ deques), `DelayStats::record`'s amortized
//! histogram and `QuantileSketch::record`'s fixed bucket table.

use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{InputPort, Mwm, OutputPort, Pim, Scheduler};
use an2_sim::batch::BatchCrossbar;
use an2_sim::cell::Arrival;
use an2_sim::metrics::QuantileSketch;
use an2_sim::model::SwitchModel;
use an2_sim::switch::CrossbarSwitch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn local_count() -> usize {
    ALLOCATIONS.with(|c| c.get())
}

struct CountingAlloc;

fn bump() {
    // `try_with` because the allocator can be called while a thread's TLS
    // is being torn down; those allocations belong to the runtime anyway.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: a pure pass-through to `System`: every method forwards its
// arguments unchanged and returns `System`'s result unchanged, so the
// GlobalAlloc contract (valid layouts in, valid blocks out, dealloc only
// of live blocks) holds exactly as it does for `System` itself. The only
// addition, `bump()`, touches a thread-local counter and never the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is the caller's, passed through unmodified.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` (every allocation
        // in this process goes through the forwarding impl above) and
        // `layout` is the one it was allocated with, per the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` describe a live System allocation (see
        // dealloc) and `new_size` is the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `QuantileSketch::record` is a pure bucket increment: no allocation
/// from the very first sample (the bucket table is sized at `new`).
#[test]
fn sketch_record_never_allocates() {
    let mut sketch = QuantileSketch::new();
    let before = local_count();
    for v in 0..100_000u64 {
        sketch.record(v.wrapping_mul(0x9e37_79b9).rotate_left(17) % (1 << 40));
    }
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "sketch record allocated {allocs} times");
    assert_eq!(sketch.count(), 100_000);
}

/// The batch engine's full slot loop — arrival enqueue, scheduling,
/// departure bookkeeping, exact histogram and sketch — settles to zero
/// allocations per slot once scratch reaches steady state.
#[test]
fn batch_slot_loop_does_not_allocate_after_warmup() {
    let n = 32usize;
    let mut engine = BatchCrossbar::new(n, Pim::new(n, 42));
    let mut rng = Xoshiro256::seed_from(0xBA7C);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let drive = |engine: &mut BatchCrossbar<Pim<Xoshiro256>>,
                     rng: &mut Xoshiro256,
                     buf: &mut Vec<Arrival>,
                     slots: usize| {
        for _ in 0..slots {
            buf.clear();
            for i in 0..n {
                if rng.bernoulli(0.8) {
                    buf.push(Arrival::pair(
                        n,
                        InputPort::new(i),
                        OutputPort::new(rng.index(n)),
                    ));
                }
            }
            engine.step_slot(buf);
        }
    };
    // Warmup: the delay histogram grows to cover the workload's delay
    // range, the scheduler fills its scratch, deep pairs spill once.
    drive(&mut engine, &mut rng, &mut buf, 500);
    let before = local_count();
    drive(&mut engine, &mut rng, &mut buf, 500);
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "batch slot loop allocated {allocs} times");
}

/// Degraded scheduling is as allocation-free as healthy scheduling: with
/// a quarter of the ports masked out, the masked batch slot loop settles
/// to zero allocations per slot (mask installation and the masked
/// grant/accept sweeps reuse the same scratch).
#[test]
fn masked_batch_slot_loop_does_not_allocate_after_warmup() {
    use an2_sched::PortMask;
    let n = 32usize;
    let mut engine = BatchCrossbar::new(n, Pim::new(n, 43));
    let mut mask = PortMask::all(n);
    for p in 0..n / 4 {
        mask.fail_input(p * 2);
        mask.fail_output(p * 2 + 1);
    }
    engine.set_port_mask(mask);
    // Steady-state degraded traffic targets live ports only: cells for a
    // dead output would buffer forever and their queue growth would be
    // workload-driven allocation, not a hot-path leak.
    let live_in: Vec<usize> = (0..n).filter(|&p| p % 2 == 1 || p >= n / 2).collect();
    let live_out: Vec<usize> = (0..n)
        .filter(|&p| p % 2 == 0 || p >= n / 2)
        .collect();
    let mut rng = Xoshiro256::seed_from(0x3A55);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let mut drive = |engine: &mut BatchCrossbar<Pim<Xoshiro256>>,
                     rng: &mut Xoshiro256,
                     slots: usize| {
        for _ in 0..slots {
            buf.clear();
            for &i in &live_in {
                if rng.bernoulli(0.6) {
                    buf.push(Arrival::pair(
                        n,
                        InputPort::new(i),
                        OutputPort::new(live_out[rng.index(live_out.len())]),
                    ));
                }
            }
            engine.step_slot(&buf);
        }
    };
    drive(&mut engine, &mut rng, 500);
    let before = local_count();
    drive(&mut engine, &mut rng, 500);
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "masked batch slot loop allocated {allocs} times");
}

/// Chaos stepping in steady state — `step_faulted` with a drained plan
/// and a degraded mask left over from earlier faults — allocates nothing:
/// the event match, the mask bookkeeping and the injected/corrupted
/// PortSet probes are all stack-only once the log stops growing.
#[test]
fn chaos_stepping_does_not_allocate_after_warmup() {
    use an2_sim::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan};
    let n = 32usize;
    let mut engine = BatchCrossbar::new(n, Pim::new(n, 44));
    // A short-lived campaign: port failures that partially recover, and a
    // burst of cell drops — all consumed during warmup, leaving the
    // engine running degraded (port 3 stays masked) with an empty plan.
    let mut events = vec![
        FaultEvent {
            slot: 10,
            kind: FaultKind::LinkDown { switch: 0, output: 5 },
        },
        FaultEvent {
            slot: 90,
            kind: FaultKind::LinkUp { switch: 0, output: 5 },
        },
        FaultEvent {
            slot: 20,
            kind: FaultKind::PortFail {
                switch: 0,
                side: an2_sim::fault::PortSide::Input,
                port: 3,
            },
        },
    ];
    for slot in 30..60 {
        events.push(FaultEvent {
            slot,
            kind: FaultKind::CellDrop { switch: 0, input: 7 },
        });
    }
    let mut plan = FaultPlan::from_events(events);
    let mut log = FaultLog::new();
    let mut rng = Xoshiro256::seed_from(0xC4A05);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let mut drive = |engine: &mut BatchCrossbar<Pim<Xoshiro256>>,
                     plan: &mut FaultPlan,
                     log: &mut FaultLog,
                     rng: &mut Xoshiro256,
                     slots: usize| {
        for _ in 0..slots {
            buf.clear();
            for i in 0..n {
                // Input 3 stays masked for the whole test; a cell arriving
                // there would buffer forever, so the host routes around it
                // (unbounded queue growth is workload, not hot path).
                if rng.bernoulli(0.8) && i != 3 {
                    buf.push(Arrival::pair(
                        n,
                        InputPort::new(i),
                        OutputPort::new(rng.index(n)),
                    ));
                }
            }
            engine.step_faulted(&buf, plan, log);
        }
    };
    // Warmup consumes every scripted event (log growth happens here).
    drive(&mut engine, &mut plan, &mut log, &mut rng, 500);
    assert_eq!(plan.remaining(), 0, "warmup must drain the plan");
    assert!(engine.dropped() > 0, "the drop burst must have struck");
    assert!(!engine.port_mask().is_full(), "port 3 must still be masked");
    let before = local_count();
    drive(&mut engine, &mut plan, &mut log, &mut rng, 500);
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "chaos stepping allocated {allocs} times");
}

/// The wide-radix sparse slot loop: a 1024-port engine under light
/// uniform traffic runs the active-pair iSLIP walk (pruned grant columns,
/// nonzero-word successor lookup) plus the idle-slot scheduler skip, and
/// none of it may allocate once warm. This is the exact configuration of
/// the perf harness's headline scaling rows.
#[test]
fn wide_sparse_batch_slot_loop_does_not_allocate_after_warmup() {
    use an2_sched::islip::WideRoundRobinMatching;
    let n = 1024usize;
    let mut engine: BatchCrossbar<_, 16> =
        BatchCrossbar::new(n, WideRoundRobinMatching::islip(n, 4));
    let mut rng = Xoshiro256::seed_from(0xBA7D);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let mut drive = |engine: &mut BatchCrossbar<WideRoundRobinMatching, 16>, slots: usize| {
        for slot in 0..slots {
            buf.clear();
            // Mostly light load (~51 cells/slot); every 8th slot is idle so
            // the idle-slot skip path is part of the measured region.
            if slot % 8 != 7 {
                for i in 0..n {
                    if rng.bernoulli(0.05) {
                        buf.push(Arrival::pair(
                            n,
                            InputPort::new(i),
                            OutputPort::new(rng.index(n)),
                        ));
                    }
                }
            }
            engine.step_slot(&buf);
        }
    };
    drive(&mut engine, 300);
    let before = local_count();
    drive(&mut engine, 300);
    let allocs = local_count() - before;
    assert_eq!(allocs, 0, "wide sparse slot loop allocated {allocs} times");
}

/// The scalar engine's slot loop — VOQ push and pop through the flow
/// slab, the queue-observation feed, scheduling, per-flow departure
/// counts — allocates nothing once every flow record exists and every
/// deque has grown to the pair capacity.
///
/// The warmup is explicit rather than statistical: a finite per-pair
/// capacity bounds every flow's deque, preloading every pair to that
/// capacity interns every flow and grows every deque to its bound, and
/// draining the preload interns every flow in the departure counts and
/// grows the delay histogram. Only then are arrivals offered.
fn assert_scalar_slot_loop_is_allocation_free<S: Scheduler>(scheduler: S, label: &str) {
    let n = 16usize;
    let capacity = 12usize;
    let mut sw = CrossbarSwitch::with_ports(n, scheduler);
    sw.buffers_mut().set_pair_capacity(Some(capacity));
    let mut preload = Vec::with_capacity(n * n * capacity);
    for i in 0..n {
        for j in 0..n {
            for _ in 0..capacity {
                preload.push(Arrival::pair(n, InputPort::new(i), OutputPort::new(j)));
            }
        }
    }
    assert_eq!(
        sw.preload(&preload),
        0,
        "{label}: preload fits the capacity"
    );
    while sw.queued() > 0 {
        sw.step(&[]);
    }
    let mut rng = Xoshiro256::seed_from(0x5CA1);
    let mut buf: Vec<Arrival> = Vec::with_capacity(n);
    let mut drive = |sw: &mut CrossbarSwitch<S>, slots: usize| {
        for _ in 0..slots {
            buf.clear();
            for i in 0..n {
                if rng.bernoulli(0.9) {
                    buf.push(Arrival::pair(
                        n,
                        InputPort::new(i),
                        OutputPort::new(rng.index(n)),
                    ));
                }
            }
            sw.step(&buf);
        }
    };
    drive(&mut sw, 200);
    let before = local_count();
    drive(&mut sw, 2000);
    let allocs = local_count() - before;
    assert_eq!(
        allocs, 0,
        "{label}: scalar slot loop allocated {allocs} times"
    );
    assert!(
        sw.report().departures > 0,
        "{label}: the switch moved cells"
    );
}

#[test]
fn scalar_pim_slot_loop_does_not_allocate_after_preload() {
    assert_scalar_slot_loop_is_allocation_free(Pim::new(16, 45), "pim");
}

#[test]
fn scalar_mwm_slot_loop_does_not_allocate_after_preload() {
    assert_scalar_slot_loop_is_allocation_free(Mwm::lqf(16), "mwm-lqf");
}
