//! Sharded thousand-switch network stepper.
//!
//! [`Network`](crate::netsim::Network) is a single-threaded, fully general
//! simulator (arbitrary topologies, faults, rerouting); stepping a
//! 1000-switch network through 10k slots with it is a minutes-scale job.
//! This module is the scale-out companion: a fixed **ring** of identical
//! crossbar switches stepped in lockstep by workers of an
//! [`an2_task::Pool`], so the same run is bit-identical at any thread
//! count.
//!
//! Determinism argument: every switch's state — its traffic generator,
//! its PIM scheduler streams, its VOQ contents — is a function of its own
//! seed (`task_seed(root, "sw{k}")`) and of the cells its ring
//! predecessor hands it, one per slot with one slot of link latency.
//! Within a slot the switches are therefore independent, and only the
//! ring link crosses between them.
//!
//! The ring is split once per run into contiguous ranges of switches, one
//! per worker ([`Pool::for_each_part`]). Each slot, every worker:
//!
//! 1. takes the cell the previous range handed over last slot into its
//!    first switch's inbox;
//! 2. steps its switches: each consumes its inbox, injects host traffic
//!    from its private RNG, schedules its crossbar and fills its outbox;
//! 3. moves each outbox to the successor's inbox inside its range;
//! 4. hands its last switch's outbox to the next range, in a cell
//!    double-buffered by slot parity;
//! 5. waits at a barrier shared by all workers.
//!
//! The parity buffer means a handoff written in slot `s` is read in slot
//! `s + 1` while the writer already fills the other buffer, so one barrier
//! per slot orders every write before its read. After the last slot the
//! cells still in a handoff are drained into inboxes, so the end state
//! equals a serial run's.
//!
//! The end-of-run [`ShardReport`] aggregates per-switch counters in index
//! order and carries an FNV digest over them, so `--threads 1` and
//! `--threads 8` runs can be byte-compared.

use an2_sched::rng::{SelectRng, Xoshiro256};
use an2_sched::{Pim, RequestMatrix, Scheduler};
use an2_sim::fault::{FaultEvent, FaultKind, FaultPlan, PortHealth, PortSide};
use an2_sim::metrics::QuantileSketch;
use an2_task::{task_seed, Pool};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Longest gap between ring-link re-reservation probes (slots). Backoff
/// doubles from 1 up to this bound, so a switch whose outgoing link died
/// probes the link within `MAX_BACKOFF` slots of it physically returning.
const MAX_BACKOFF: u64 = 64;

/// Slots per throughput-recovery window in faulted runs: delivered-cell
/// counts are bucketed at this granularity so the chaos driver can find
/// the slot where post-fault throughput regains its pre-fault baseline.
pub const FAULT_WINDOW: u64 = 32;

/// A growable FIFO of packed transit cells with power-of-two capacity;
/// the per-pair VOQ storage of a shard switch. Same shape as the batch
/// engine's slot ring, but carrying `u64` payloads (routed cells), not
/// bare arrival slots.
#[derive(Debug, Default)]
struct Ring {
    buf: Box<[u64]>,
    head: u32,
    len: u32,
}

impl Ring {
    #[inline]
    // an2-lint: allow(overflow-discipline) grow() runs first, so len < capacity before the increment
    // an2-lint: allow(panic-freedom) tail is masked by the power-of-two ring capacity
    fn enqueue(&mut self, v: u64) {
        if self.len as usize == self.buf.len() {
            self.grow();
        }
        let mask = self.buf.len() - 1;
        let tail = (self.head as usize + self.len as usize) & mask;
        self.buf[tail] = v;
        self.len += 1;
    }

    #[inline]
    // an2-lint: allow(overflow-discipline) callers only dequeue VOQs the request matrix marks non-empty (the debug_assert pins len > 0)
    // an2-lint: allow(panic-freedom) head is masked by the power-of-two ring capacity
    fn dequeue(&mut self) -> u64 {
        debug_assert!(self.len > 0, "dequeue from empty ring");
        let mask = self.buf.len() - 1;
        let v = self.buf[self.head as usize];
        self.head = ((self.head as usize + 1) & mask) as u32;
        self.len -= 1;
        v
    }

    /// Doubles capacity, compacting the live window to the front.
    // an2-lint: cold
    #[cold]
    fn grow(&mut self) {
        let cap = self.buf.len();
        let mut next = vec![0u64; (cap * 2).max(4)].into_boxed_slice();
        let mask = cap.max(1) - 1;
        for k in 0..self.len as usize {
            next[k] = self.buf[(self.head as usize + k) & mask];
        }
        self.buf = next;
        self.head = 0;
    }
}

/// Scenario parameters for a sharded ring-network run.
#[derive(Clone, Copy, Debug)]
pub struct ShardNetConfig {
    /// Switches on the ring.
    pub switches: usize,
    /// Ports per switch; port 0 is the ring link, ports `1..radix` face
    /// hosts.
    pub radix: usize,
    /// Destination span: each injected cell targets a switch uniformly
    /// `1..=span` hops ahead on the ring.
    pub span: usize,
    /// Per-host-port Bernoulli injection probability per slot. Keep
    /// `host_load * (radix-1) * (span+1) / 2` under 1.0 or the shared
    /// ring link saturates and queues diverge.
    pub host_load: f64,
    /// Root seed; switch `k` derives its streams via
    /// `task_seed(seed, "sw{k}")`.
    pub seed: u64,
    /// Slots to simulate.
    pub slots: u64,
}

impl ShardNetConfig {
    /// The thousand-switch scaling scenario the benchmarks record.
    pub fn thousand() -> Self {
        Self {
            switches: 1000,
            radix: 16,
            span: 4,
            host_load: 0.015,
            seed: 0xA2,
            slots: 10_000,
        }
    }

    fn validate(&self) {
        assert!(self.switches >= 2, "a ring needs at least two switches");
        assert!(
            self.switches <= 1 << 20,
            "destination switch is packed in 20 bits (switches <= 2^20)"
        );
        assert!(
            self.radix >= 2 && self.radix <= 256,
            "shard switches use the narrow scheduler width (radix 2..=256)"
        );
        assert!(self.span >= 1 && self.span < self.switches, "span out of range");
        assert!(
            (0.0..=1.0).contains(&self.host_load),
            "host_load must be a probability"
        );
        assert!(self.slots < u32::MAX as u64, "slot counter is packed in 32 bits");
    }
}

/// Packed transit cell: destination switch (20 bits), destination host
/// port (12 bits), injection slot (32 bits).
#[inline]
fn pack(dst_switch: usize, dst_port: usize, slot: u64) -> u64 {
    ((dst_switch as u64) << 44) | ((dst_port as u64) << 32) | slot
}

#[inline]
fn dst_switch(cell: u64) -> usize {
    (cell >> 44) as usize
}

#[inline]
fn dst_port(cell: u64) -> usize {
    ((cell >> 32) & 0xFFF) as usize
}

#[inline]
fn inject_slot(cell: u64) -> u64 {
    cell & 0xFFFF_FFFF
}

/// One ring switch: private RNG, PIM scheduler, per-pair VOQ rings, and
/// the single-cell link buffers the stepper moves between switches.
#[derive(Debug)]
struct SwitchShard {
    k: usize,
    switches: usize,
    radix: usize,
    span: usize,
    host_load: f64,
    rng: Xoshiro256,
    sched: Pim,
    requests: RequestMatrix,
    rings: Vec<Ring>,
    inbox: Option<u64>,
    outbox: Option<u64>,
    queued: u64,
    injected: u64,
    delivered: u64,
    delay_sum: u128,
    sketch: QuantileSketch,
    // --- fault state (inert in fault-free runs) ---------------------
    /// This switch's slice of the campaign's fault plan.
    plan: FaultPlan,
    /// Port mask, this slot's lost arrivals and clock drift; failed
    /// ports are masked out of scheduling only.
    health: PortHealth,
    /// Physical state of the outgoing ring link (LinkDown/LinkUp events).
    link_up: bool,
    /// A re-reservation backoff loop is running for the ring link.
    reserving: bool,
    /// Slot of the next re-reservation probe.
    retry_at: u64,
    /// Current probe gap; doubles per failure up to [`MAX_BACKOFF`].
    backoff: u64,
    /// Slot the current ring-link outage began (for recovery SLOs).
    down_since: u64,
    /// Cells lost at this switch (injected drops, corrupted CRCs, cells
    /// in flight on a dying link).
    dropped: u64,
    /// Fault events applied here.
    applied: u64,
    /// Ring-link re-reservation probes sent / probes that failed.
    res_attempts: u64,
    res_failures: u64,
    /// Completed ring-link recoveries, and their summed outage-to-
    /// reservation latency in slots.
    recoveries: u64,
    recovery_slots: u64,
    /// Delivered-cell counts per [`FAULT_WINDOW`]-slot bucket; empty in
    /// fault-free runs (the faulted runner pre-sizes it).
    windows: Vec<u32>,
}

impl SwitchShard {
    fn new(cfg: &ShardNetConfig, k: usize) -> Self {
        let seed = task_seed(cfg.seed, &format!("sw{k}"));
        let mut rings = Vec::new();
        rings.resize_with(cfg.radix * cfg.radix, Ring::default);
        Self {
            k,
            switches: cfg.switches,
            radix: cfg.radix,
            span: cfg.span,
            host_load: cfg.host_load,
            rng: Xoshiro256::seed_from(seed),
            sched: Pim::new(cfg.radix, seed),
            requests: RequestMatrix::new(cfg.radix),
            rings,
            inbox: None,
            outbox: None,
            queued: 0,
            injected: 0,
            delivered: 0,
            delay_sum: 0,
            sketch: QuantileSketch::new(),
            plan: FaultPlan::new(),
            health: PortHealth::new(cfg.radix),
            link_up: true,
            reserving: false,
            retry_at: 0,
            backoff: 1,
            down_since: 0,
            dropped: 0,
            applied: 0,
            res_attempts: 0,
            res_failures: 0,
            recoveries: 0,
            recovery_slots: 0,
            windows: Vec::new(),
        }
    }

    #[inline]
    // an2-lint: allow(overflow-discipline) queued counts resident cells, bounded by total ring capacity
    // an2-lint: allow(panic-freedom) p = input * radix + output with both factors < radix, so p < rings.len()
    fn enqueue_cell(&mut self, input: usize, cell: u64) {
        let output = if dst_switch(cell) == self.k {
            dst_port(cell)
        } else {
            0
        };
        let p = input * self.radix + output;
        if self.rings[p].len == 0 {
            self.requests.set(
                an2_sched::InputPort::new(input),
                an2_sched::OutputPort::new(output),
            );
        }
        self.rings[p].enqueue(cell);
        self.queued += 1;
    }

    /// One slot under this switch's fault plan: applies due events (mask
    /// changes, on-the-wire cell losses, clock drift), runs the bounded-
    /// backoff re-reservation probe for a failed ring link, then the
    /// ordinary inject/schedule/transmit sequence. With an empty plan the
    /// slot is bit-identical to [`SwitchShard::advance`] — the RNG draw order
    /// never depends on fault state. Only the ring link's events (output 0)
    /// are handled here; every other event is [`PortHealth`]'s.
    // an2-lint: hot
    fn step_faulted(&mut self, slot: u64) {
        let mut mask_changed = false;
        // Move the plan out so event handling can borrow `self` freely.
        let mut plan = std::mem::take(&mut self.plan);
        for ev in plan.due(slot) {
            match ev.kind {
                FaultKind::LinkDown { output: 0, .. } => {
                    // The outgoing ring link died: lose anything on the
                    // wire and start the re-reservation loop.
                    self.link_up = false;
                    if self.outbox.take().is_some() {
                        self.dropped = self.dropped.saturating_add(1);
                    }
                    if !self.reserving {
                        self.reserving = true;
                        self.down_since = slot;
                        self.backoff = 1;
                        self.retry_at = slot.saturating_add(1);
                    }
                    mask_changed |= self.health.apply(slot, ev.kind);
                }
                // Physical repair only: the output stays masked until a
                // re-reservation probe succeeds.
                FaultKind::LinkUp { output: 0, .. } => self.link_up = true,
                kind => mask_changed |= self.health.apply(slot, kind),
            }
            self.applied = self.applied.saturating_add(1);
        }
        self.plan = plan;
        // Bounded-backoff re-reservation: probe the dead ring link on the
        // backoff schedule; once it is physically up a probe re-reserves
        // the slot capacity and unmasks the output.
        if self.reserving && slot >= self.retry_at {
            self.res_attempts = self.res_attempts.saturating_add(1);
            if self.link_up {
                self.reserving = false;
                mask_changed |= self.health.set_port(PortSide::Output, 0, true);
                self.recoveries = self.recoveries.saturating_add(1);
                self.recovery_slots = self
                    .recovery_slots
                    .saturating_add(slot.saturating_sub(self.down_since));
            } else {
                self.res_failures = self.res_failures.saturating_add(1);
                self.backoff = self.backoff.saturating_mul(2).min(MAX_BACKOFF);
                self.retry_at = slot.saturating_add(self.backoff);
            }
        }
        if mask_changed {
            self.sched.set_port_mask(self.health.mask());
        }
        self.advance(slot);
        self.health.end_slot();
    }

    /// One slot: consume the inbox, inject host traffic, schedule the
    /// crossbar (unless the clock drifts), deliver local cells and fill
    /// the outbox. RNG draws happen for every host arrival whether or not
    /// a fault consumes it, so masking and drops are draw-neutral.
    // an2-lint: hot
    // an2-lint: allow(overflow-discipline) queued mirrors ring occupancy; slot >= inject_slot(cell) since cells are injected at or before the current slot; delivery counters are monotone u64
    // an2-lint: allow(panic-freedom) matched pairs come from the scheduler, so i and j are < radix and p < rings.len()
    fn advance(&mut self, slot: u64) {
        if let Some(cell) = self.inbox.take() {
            if self.health.arrival_fault(0).is_some() {
                // The cell in flight on the (dying or glitching) ring link
                // is lost at the receiver.
                self.dropped += 1;
            } else {
                self.enqueue_cell(0, cell);
            }
        }
        for h in 1..self.radix {
            if self.rng.bernoulli(self.host_load) {
                let d = (self.k + 1 + self.rng.index(self.span)) % self.switches;
                let q = 1 + self.rng.index(self.radix - 1);
                self.injected += 1;
                if self.health.arrival_fault(h).is_some() {
                    self.dropped += 1;
                } else {
                    self.enqueue_cell(h, pack(d, q, slot));
                }
            }
        }
        if self.health.drifting(slot) {
            return;
        }
        let matching = self.sched.schedule(&self.requests);
        for (i, j) in matching.pairs() {
            let p = i.index() * self.radix + j.index();
            let cell = self.rings[p].dequeue();
            if self.rings[p].len == 0 {
                self.requests.clear(i, j);
            }
            self.queued -= 1;
            if j.index() == 0 {
                debug_assert!(self.outbox.is_none(), "two cells matched onto the ring link");
                self.outbox = Some(cell);
            } else {
                let d = slot - inject_slot(cell);
                self.delivered += 1;
                self.delay_sum += d as u128;
                self.sketch.record(d);
                if !self.windows.is_empty() {
                    self.windows[(slot / FAULT_WINDOW) as usize] += 1;
                }
            }
        }
    }

    /// Takes the cell this switch put on its ring link this slot. A link
    /// that is physically down loses it (defensive: the mask normally
    /// keeps the outbox empty while the link is down, and fault-free runs
    /// never take a link down).
    fn transmit(&mut self) -> Option<u64> {
        let cell = self.outbox.take()?;
        if self.link_up {
            Some(cell)
        } else {
            self.dropped = self.dropped.saturating_add(1);
            None
        }
    }

    /// Puts the cell from the ring predecessor into the inbox.
    fn receive(&mut self, cell: Option<u64>) {
        debug_assert!(self.inbox.is_none(), "inbox consumed every slot");
        self.inbox = cell;
    }

    /// Cells still inside this switch (VOQs plus undelivered link buffers).
    fn in_flight(&self) -> u64 {
        self.queued + self.inbox.is_some() as u64 + self.outbox.is_some() as u64
    }
}

/// The ring link from one worker's range into the next one's first
/// switch, double-buffered by slot parity: the cell sent in slot `s` sits
/// in buffer `s % 2` and is received in slot `s + 1`, while the sender is
/// already filling the other buffer.
#[derive(Debug, Default)]
struct Handoff {
    even: Mutex<Option<u64>>,
    odd: Mutex<Option<u64>>,
}

impl Handoff {
    /// The buffer written in `slot`.
    fn sent_in(&self, slot: u64) -> MutexGuard<'_, Option<u64>> {
        let m = if slot.is_multiple_of(2) { &self.even } else { &self.odd };
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The buffer read at the start of `slot`: the one written in the
    /// previous slot.
    fn received_in(&self, slot: u64) -> MutexGuard<'_, Option<u64>> {
        self.sent_in(slot.wrapping_add(1))
    }
}

/// Steps the whole ring (`switches` in index order) through `slots` slots
/// with `step`, one contiguous range of switches per pool worker; see the
/// module docs for the per-slot protocol. Workers are spawned once for
/// the run, and nothing is allocated per slot.
///
/// A panic in any worker's step is caught, every worker leaves at the
/// same barrier, and the panic is re-raised from the pool, so a failed
/// debug assertion fails the run instead of deadlocking it.
fn step_ring(
    switches: &mut [SwitchShard],
    slots: u64,
    pool: &Pool,
    step: fn(&mut SwitchShard, u64),
) {
    if slots == 0 {
        return;
    }
    let parts = pool.parts(switches.len());
    let handoffs: Vec<Handoff> = (0..parts).map(|_| Handoff::default()).collect();
    let barrier = Barrier::new(parts);
    // First slot in which a step panicked. A worker may already be failing
    // in slot `s + 1` while another still checks after barrier `s`, so the
    // check compares slots instead of reading a flag. Relaxed suffices:
    // the barrier orders every store of slot `s` before the loads after it.
    let failed_in = AtomicU64::new(u64::MAX);
    pool.for_each_part(switches, |part, range| {
        let inbound = &handoffs[part];
        let outbound = &handoffs[(part + 1) % parts];
        for slot in 0..slots {
            let stepped = panic::catch_unwind(AssertUnwindSafe(|| {
                slot_in_range(range, inbound, outbound, slot, step);
            }));
            if stepped.is_err() {
                failed_in.fetch_min(slot, Ordering::Relaxed);
            }
            barrier.wait();
            if failed_in.load(Ordering::Relaxed) <= slot {
                if let Err(payload) = stepped {
                    panic::resume_unwind(payload);
                }
                return;
            }
        }
        // Drain the last slot's handoff so no cell is left between ranges.
        if let Some(first) = range.first_mut() {
            first.receive(inbound.received_in(slots).take());
        }
    });
}

/// One slot of one worker's range: receive from the previous range, step
/// every switch, move outboxes to successor inboxes, and hand the last
/// switch's outbox to the next range.
// an2-lint: hot
fn slot_in_range(
    range: &mut [SwitchShard],
    inbound: &Handoff,
    outbound: &Handoff,
    slot: u64,
    step: fn(&mut SwitchShard, u64),
) {
    if let Some(first) = range.first_mut() {
        first.receive(inbound.received_in(slot).take());
    }
    for sw in range.iter_mut() {
        step(sw, slot);
    }
    let mut carried = None;
    for sw in range.iter_mut() {
        sw.receive(carried);
        carried = sw.transmit();
    }
    *outbound.sent_in(slot) = carried;
}

/// Aggregate result of a sharded network run; identical at any thread
/// count for a given [`ShardNetConfig`].
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Slots simulated.
    pub slots: u64,
    /// Switches on the ring.
    pub switches: usize,
    /// Cells injected by hosts.
    pub injected: u64,
    /// Cells delivered to their destination host port.
    pub delivered: u64,
    /// Cells still queued or on a link at the end of the run.
    pub in_flight: u64,
    /// End-to-end delay distribution of delivered cells (injection slot to
    /// delivery slot), in the O(1)-memory sketch.
    pub delay: QuantileSketch,
    /// Exact mean end-to-end delay in slots.
    pub mean_delay: f64,
    /// FNV-1a digest over per-switch `(injected, delivered, in_flight)`
    /// triples in switch-index order — a thread-count-independence probe.
    pub digest: u64,
}

impl ShardReport {
    /// Every injected cell is delivered or still in flight.
    pub fn is_conserved(&self) -> bool {
        self.injected == self.delivered + self.in_flight
    }
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard-net: {} switches x {} slots",
            self.switches, self.slots
        )?;
        writeln!(
            f,
            "  injected {}  delivered {}  in-flight {}",
            self.injected, self.delivered, self.in_flight
        )?;
        writeln!(
            f,
            "  delay mean {:.4}  p50 {}  p99 {}  max {}",
            self.mean_delay,
            self.delay.quantile(0.50),
            self.delay.quantile(0.99),
            self.delay.max()
        )?;
        write!(f, "  digest {:#018x}", self.digest)
    }
}

/// Network-wide totals, reduced from the switches in index order so they
/// are the same at any thread count. Both runners report from one.
struct Totals {
    injected: u64,
    delivered: u64,
    in_flight: u64,
    dropped: u64,
    faults_applied: u64,
    res_attempts: u64,
    res_failures: u64,
    recoveries: u64,
    recovery_slots: u64,
    mean_delay: f64,
    delay: QuantileSketch,
    /// Delivered cells per [`FAULT_WINDOW`] bucket; empty for fault-free
    /// runs, whose switches keep no windows.
    windows: Vec<u64>,
    /// FNV-1a over each switch's `(injected, delivered, in_flight)`.
    digest: u64,
    /// FNV-1a over each switch's `(injected, delivered, in_flight,
    /// dropped)`: the faulted run's digest.
    fault_digest: u64,
}

impl Totals {
    fn of(switches: &[SwitchShard]) -> Self {
        let buckets = switches.first().map_or(0, |sw| sw.windows.len());
        let mut t = Totals {
            injected: 0,
            delivered: 0,
            in_flight: 0,
            dropped: 0,
            faults_applied: 0,
            res_attempts: 0,
            res_failures: 0,
            recoveries: 0,
            recovery_slots: 0,
            mean_delay: 0.0,
            delay: QuantileSketch::new(),
            windows: vec![0; buckets],
            digest: DIGEST_OFFSET,
            fault_digest: DIGEST_OFFSET,
        };
        let mut delay_sum = 0u128;
        for sw in switches {
            t.injected += sw.injected;
            t.delivered += sw.delivered;
            t.in_flight += sw.in_flight();
            t.dropped += sw.dropped;
            t.faults_applied += sw.applied;
            t.res_attempts += sw.res_attempts;
            t.res_failures += sw.res_failures;
            t.recoveries += sw.recoveries;
            t.recovery_slots += sw.recovery_slots;
            delay_sum += sw.delay_sum;
            t.delay.merge(&sw.sketch);
            for (w, &v) in t.windows.iter_mut().zip(&sw.windows) {
                *w += u64::from(v);
            }
            for v in [sw.injected, sw.delivered, sw.in_flight()] {
                digest_fold(&mut t.digest, v);
                digest_fold(&mut t.fault_digest, v);
            }
            digest_fold(&mut t.fault_digest, sw.dropped);
        }
        if t.delivered > 0 {
            t.mean_delay = delay_sum as f64 / t.delivered as f64;
        }
        t
    }
}

const DIGEST_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `v`'s little-endian bytes into a report digest: FNV-1a's offset
/// and shape, but with multiplier `2^48 + 0x1b3` rather than FNV's
/// `2^40 + 0x1b3` (so not `an2_task::fnv1a`), which the pinned ring
/// digests depend on.
fn digest_fold(digest: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x1_0000_0000_01b3);
    }
}

/// Runs the configured ring network on `pool` and returns the merged
/// report.
///
/// # Panics
///
/// Panics if the configuration is out of range (see [`ShardNetConfig`]
/// field docs) or if cell conservation is violated.
pub fn run_shard_net(cfg: &ShardNetConfig, pool: &Pool) -> ShardReport {
    cfg.validate();
    let k = cfg.switches;
    let mut switches: Vec<SwitchShard> = (0..k).map(|i| SwitchShard::new(cfg, i)).collect();
    step_ring(&mut switches, cfg.slots, pool, SwitchShard::advance);
    let t = Totals::of(&switches);
    let report = ShardReport {
        slots: cfg.slots,
        switches: k,
        injected: t.injected,
        delivered: t.delivered,
        in_flight: t.in_flight,
        mean_delay: t.mean_delay,
        delay: t.delay,
        digest: t.digest,
    };
    assert!(
        report.is_conserved(),
        "cell conservation violated: {} injected, {} delivered, {} in flight",
        report.injected,
        report.delivered,
        report.in_flight
    );
    report
}

/// Aggregate result of a faulted sharded run; identical at any thread
/// count for a given `(ShardNetConfig, FaultPlan)` pair.
#[derive(Clone, Debug)]
pub struct ShardFaultReport {
    /// Slots simulated.
    pub slots: u64,
    /// Switches on the ring.
    pub switches: usize,
    /// Cells injected by hosts.
    pub injected: u64,
    /// Cells delivered to their destination host port.
    pub delivered: u64,
    /// Cells still queued or on a link at the end of the run.
    pub in_flight: u64,
    /// Cells lost to faults (injected drops, corrupted CRCs, cells caught
    /// on a dying ring link).
    pub dropped: u64,
    /// Fault events applied across the network.
    pub faults_applied: u64,
    /// Ring-link re-reservation probes sent, and probes that found the
    /// link still down.
    pub res_attempts: u64,
    /// Failed re-reservation probes (link still physically down).
    pub res_failures: u64,
    /// Completed ring-link recoveries.
    pub recoveries: u64,
    /// Summed outage-begin-to-reservation latency over all recoveries.
    pub recovery_slots: u64,
    /// Exact mean end-to-end delay of delivered cells, in slots.
    pub mean_delay: f64,
    /// End-to-end delay distribution of delivered cells.
    pub delay: QuantileSketch,
    /// Network-wide delivered-cell counts per [`FAULT_WINDOW`]-slot
    /// bucket, for throughput-recovery SLOs.
    pub windows: Vec<u64>,
    /// FNV-1a digest over per-switch `(injected, delivered, in_flight,
    /// dropped)` quadruples in switch-index order.
    pub digest: u64,
}

impl ShardFaultReport {
    /// Every injected cell is delivered, still in flight, or accounted as
    /// a fault drop.
    pub fn is_conserved(&self) -> bool {
        self.injected == self.delivered + self.in_flight + self.dropped
    }

    /// Mean slots from ring-link outage to successful re-reservation.
    pub fn mean_recovery_slots(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_slots as f64 / self.recoveries as f64
        }
    }
}

impl fmt::Display for ShardFaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard-net faulted: {} switches x {} slots",
            self.switches, self.slots
        )?;
        writeln!(
            f,
            "  injected {}  delivered {}  in-flight {}  dropped {}",
            self.injected, self.delivered, self.in_flight, self.dropped
        )?;
        writeln!(
            f,
            "  faults {}  probes {} ({} failed)  recoveries {}  mean-recovery {:.2}",
            self.faults_applied,
            self.res_attempts,
            self.res_failures,
            self.recoveries,
            self.mean_recovery_slots()
        )?;
        writeln!(
            f,
            "  delay mean {:.4}  p50 {}  p99 {}  max {}",
            self.mean_delay,
            self.delay.quantile(0.50),
            self.delay.quantile(0.99),
            self.delay.max()
        )?;
        write!(f, "  digest {:#018x}", self.digest)
    }
}

/// Splits a network-wide fault plan into per-switch plans.
///
/// A ring `LinkDown {..., output: 0}` is additionally mirrored as a
/// synthetic `CellDrop { switch: successor, input: 0 }` at the same slot:
/// the cell in flight on the dying link sits in the successor's inbox
/// under the one-slot link-latency model, and only the successor can
/// drop it without touching another switch's state mid-slot (the two may
/// sit in different workers' ranges).
fn split_plan(plan: &FaultPlan, switches: usize) -> Vec<Vec<FaultEvent>> {
    let mut per_switch: Vec<Vec<FaultEvent>> = vec![Vec::new(); switches];
    for ev in plan.events() {
        let s = ev.kind.switch();
        debug_assert!(s < switches, "fault event targets switch {s} of {switches}");
        if s >= switches {
            continue;
        }
        per_switch[s].push(*ev);
        if let FaultKind::LinkDown { output: 0, .. } = ev.kind {
            let succ = (s + 1) % switches;
            per_switch[succ].push(FaultEvent {
                slot: ev.slot,
                kind: FaultKind::CellDrop {
                    switch: succ,
                    input: 0,
                },
            });
        }
    }
    per_switch
}

/// Runs the configured ring network under `plan` on `pool` and returns
/// the merged fault report. With an empty plan the per-switch dynamics
/// are bit-identical to [`run_shard_net`].
///
/// # Panics
///
/// Panics if the configuration is out of range or if cell conservation
/// (injected == delivered + in flight + dropped) is violated.
pub fn run_shard_net_faulted(
    cfg: &ShardNetConfig,
    plan: &FaultPlan,
    pool: &Pool,
) -> ShardFaultReport {
    cfg.validate();
    let k = cfg.switches;
    let buckets = cfg.slots.div_ceil(FAULT_WINDOW).max(1) as usize;
    let mut switches: Vec<SwitchShard> = split_plan(plan, k)
        .into_iter()
        .enumerate()
        .map(|(i, events)| {
            let mut sw = SwitchShard::new(cfg, i);
            sw.plan = FaultPlan::from_events(events);
            sw.windows = vec![0u32; buckets];
            sw
        })
        .collect();
    step_ring(&mut switches, cfg.slots, pool, SwitchShard::step_faulted);
    let t = Totals::of(&switches);
    let report = ShardFaultReport {
        slots: cfg.slots,
        switches: k,
        injected: t.injected,
        delivered: t.delivered,
        in_flight: t.in_flight,
        dropped: t.dropped,
        faults_applied: t.faults_applied,
        res_attempts: t.res_attempts,
        res_failures: t.res_failures,
        recoveries: t.recoveries,
        recovery_slots: t.recovery_slots,
        mean_delay: t.mean_delay,
        delay: t.delay,
        windows: t.windows,
        digest: t.fault_digest,
    };
    assert!(
        report.is_conserved(),
        "cell conservation violated under faults: {} injected, {} delivered, {} in flight, {} dropped",
        report.injected,
        report.delivered,
        report.in_flight,
        report.dropped
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShardNetConfig {
        ShardNetConfig {
            switches: 32,
            radix: 8,
            span: 3,
            host_load: 0.02,
            seed: 7,
            slots: 400,
        }
    }

    #[test]
    fn serial_run_conserves_and_delivers() {
        let r = run_shard_net(&small(), &Pool::serial());
        assert!(r.is_conserved());
        assert!(r.delivered > 0, "no cells delivered");
        assert!(r.delay.max() >= 2, "ring transit takes at least two slots");
    }

    /// The smallest ring: with 3 or 4 threads the pool has more workers
    /// than switches, and each range is a single switch.
    fn two_switch_ring() -> ShardNetConfig {
        ShardNetConfig {
            switches: 2,
            span: 1,
            host_load: 0.1,
            ..small()
        }
    }

    #[test]
    fn thread_count_does_not_change_the_run() {
        for cfg in [small(), two_switch_ring()] {
            let serial = run_shard_net(&cfg, &Pool::serial());
            for threads in 2..=4 {
                let r = run_shard_net(&cfg, &Pool::new(threads));
                let label = format!("{} switches, {threads} threads", cfg.switches);
                assert_eq!(serial.digest, r.digest, "{label}");
                assert_eq!(serial.to_string(), r.to_string());
            }
        }
    }

    #[test]
    fn every_run_length_matches_the_serial_run() {
        // Whatever slot the run stops at, a cell still in a range-to-range
        // handoff must be drained into its inbox and counted in flight.
        let mut cfg = ShardNetConfig {
            switches: 6,
            radix: 4,
            span: 2,
            host_load: 0.15,
            seed: 5,
            slots: 0,
        };
        for slots in 0..=40 {
            cfg.slots = slots;
            let serial = run_shard_net(&cfg, &Pool::serial());
            for threads in [2, 3] {
                let r = run_shard_net(&cfg, &Pool::new(threads));
                assert_eq!(
                    serial.to_string(),
                    r.to_string(),
                    "{slots} slots, {threads} threads"
                );
            }
        }
    }

    fn step_or_fail(sw: &mut SwitchShard, slot: u64) {
        assert!(!(sw.k == 16 && slot == 7), "switch 16 failed in slot 7");
        sw.advance(slot);
    }

    #[test]
    fn a_failing_switch_fails_the_run_instead_of_deadlocking() {
        // Switch 16 opens a range at 2 and 4 threads, so its worker fails
        // right after the barrier, often before a slower worker has
        // checked for failures there; repeat to hit that interleaving.
        let cfg = small();
        for threads in [2, 3, 4] {
            for _ in 0..20 {
                let mut switches: Vec<SwitchShard> =
                    (0..cfg.switches).map(|i| SwitchShard::new(&cfg, i)).collect();
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    step_ring(&mut switches, cfg.slots, &Pool::new(threads), step_or_fail);
                }));
                let payload = run.expect_err("a failing switch must fail the run");
                let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(msg.contains("pool worker panicked"), "{threads} threads: {msg:?}");
            }
        }
    }

    #[test]
    fn distinct_seeds_produce_distinct_runs() {
        let mut cfg = small();
        let a = run_shard_net(&cfg, &Pool::serial());
        cfg.seed = 8;
        let b = run_shard_net(&cfg, &Pool::serial());
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn ring_latency_reflects_span() {
        // With span 1 every cell crosses exactly one link: scheduled out
        // in the injection slot at the earliest, delivered no sooner than
        // the next slot — delay is at least 1.
        let cfg = ShardNetConfig {
            switches: 8,
            radix: 4,
            span: 1,
            host_load: 0.01,
            seed: 3,
            slots: 500,
        };
        let r = run_shard_net(&cfg, &Pool::serial());
        assert!(r.delivered > 0);
        assert!(r.delay.quantile(0.5) >= 1);
    }

    #[test]
    #[should_panic(expected = "at least two switches")]
    fn single_switch_ring_rejected() {
        let mut cfg = small();
        cfg.switches = 1;
        run_shard_net(&cfg, &Pool::serial());
    }

    #[test]
    #[should_panic(expected = "packed in 20 bits")]
    fn ring_wider_than_the_packed_switch_field_rejected() {
        let mut cfg = small();
        cfg.switches = 1 << 20;
        cfg.validate();
        // One switch more and destinations would wrap to `dst mod 2^20`.
        cfg.switches += 1;
        run_shard_net(&cfg, &Pool::serial());
    }

    #[test]
    fn empty_plan_matches_the_fault_free_run() {
        let cfg = small();
        let base = run_shard_net(&cfg, &Pool::serial());
        let faulted = run_shard_net_faulted(&cfg, &FaultPlan::new(), &Pool::serial());
        assert_eq!(base.injected, faulted.injected);
        assert_eq!(base.delivered, faulted.delivered);
        assert_eq!(base.in_flight, faulted.in_flight);
        assert_eq!(faulted.dropped, 0);
        assert_eq!(faulted.faults_applied, 0);
        assert_eq!(base.mean_delay, faulted.mean_delay);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(base.delay.quantile(q), faulted.delay.quantile(q));
        }
        assert_eq!(
            faulted.windows.iter().sum::<u64>(),
            faulted.delivered,
            "window buckets must sum to the delivered total"
        );
    }

    #[test]
    fn events_naming_a_port_outside_the_switch_are_ignored() {
        let cfg = small();
        let outside = |slot, kind| FaultEvent { slot, kind };
        let plan = FaultPlan::from_events(vec![
            outside(
                40,
                FaultKind::PortFail {
                    switch: 3,
                    side: PortSide::Output,
                    port: cfg.radix,
                },
            ),
            outside(
                41,
                FaultKind::CellDrop {
                    switch: 3,
                    input: cfg.radix,
                },
            ),
        ]);
        let clean = run_shard_net_faulted(&cfg, &FaultPlan::new(), &Pool::serial());
        let faulted = run_shard_net_faulted(&cfg, &plan, &Pool::serial());
        assert_eq!(faulted.faults_applied, 2, "still logged as applied");
        assert_eq!(faulted.dropped, 0);
        assert_eq!(faulted.digest, clean.digest);
    }

    fn burst_plan() -> FaultPlan {
        FaultPlan::from_events(vec![
            FaultEvent {
                slot: 50,
                kind: FaultKind::LinkDown { switch: 5, output: 0 },
            },
            FaultEvent {
                slot: 90,
                kind: FaultKind::LinkUp { switch: 5, output: 0 },
            },
            FaultEvent {
                slot: 60,
                kind: FaultKind::PortFail {
                    switch: 11,
                    side: PortSide::Input,
                    port: 3,
                },
            },
            FaultEvent {
                slot: 120,
                kind: FaultKind::PortRecover {
                    switch: 11,
                    side: PortSide::Input,
                    port: 3,
                },
            },
            FaultEvent {
                slot: 70,
                kind: FaultKind::CellDrop { switch: 2, input: 4 },
            },
            FaultEvent {
                slot: 75,
                kind: FaultKind::ClockDrift { switch: 9, slots: 8 },
            },
        ])
    }

    #[test]
    fn faulted_run_is_thread_count_independent() {
        let two_switch_plan = FaultPlan::from_events(vec![
            FaultEvent {
                slot: 30,
                kind: FaultKind::LinkDown { switch: 1, output: 0 },
            },
            FaultEvent {
                slot: 45,
                kind: FaultKind::LinkUp { switch: 1, output: 0 },
            },
            FaultEvent {
                slot: 60,
                kind: FaultKind::CellDrop { switch: 0, input: 2 },
            },
        ]);
        for (cfg, plan) in [(small(), burst_plan()), (two_switch_ring(), two_switch_plan)] {
            let serial = run_shard_net_faulted(&cfg, &plan, &Pool::serial());
            assert!(serial.faults_applied > 0);
            for threads in 2..=4 {
                let r = run_shard_net_faulted(&cfg, &plan, &Pool::new(threads));
                let label = format!("{} switches, {threads} threads", cfg.switches);
                assert_eq!(serial.digest, r.digest, "{label}");
                assert_eq!(serial.to_string(), r.to_string());
            }
        }
    }

    #[test]
    fn faults_at_range_boundaries_are_thread_count_independent() {
        // 32 switches split into ranges 0..16 | 16..32 on 2 threads and
        // 0..11 | 11..22 | 22..32 on 3. Take down the ring links that
        // cross those boundaries (and the wrap-around link 31 -> 0), and
        // drop cells arriving at the first switch of each range.
        let mut cfg = small();
        cfg.host_load = 0.05;
        let mut events = Vec::new();
        for (switch, down, up) in [(15, 40, 70), (10, 50, 62), (21, 55, 90), (31, 80, 95)] {
            events.push(FaultEvent {
                slot: down,
                kind: FaultKind::LinkDown { switch, output: 0 },
            });
            events.push(FaultEvent {
                slot: up,
                kind: FaultKind::LinkUp { switch, output: 0 },
            });
        }
        for switch in [0, 11, 16, 22] {
            for slot in [100, 101, 150] {
                events.push(FaultEvent {
                    slot,
                    kind: FaultKind::CellDrop { switch, input: 0 },
                });
            }
        }
        let plan = FaultPlan::from_events(events);
        let serial = run_shard_net_faulted(&cfg, &plan, &Pool::serial());
        assert_eq!(serial.recoveries, 4, "every boundary link recovers");
        assert!(serial.dropped > 0, "the boundary faults must catch cells");
        for threads in [2, 3] {
            let r = run_shard_net_faulted(&cfg, &plan, &Pool::new(threads));
            assert_eq!(serial.digest, r.digest, "{threads} threads");
            assert_eq!(serial.windows, r.windows);
            assert_eq!(serial.to_string(), r.to_string());
        }
    }

    #[test]
    fn ring_link_outage_recovers_with_bounded_backoff() {
        let cfg = small();
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                slot: 100,
                kind: FaultKind::LinkDown { switch: 7, output: 0 },
            },
            FaultEvent {
                slot: 140,
                kind: FaultKind::LinkUp { switch: 7, output: 0 },
            },
        ]);
        let r = run_shard_net_faulted(&cfg, &plan, &Pool::serial());
        assert!(r.is_conserved());
        assert_eq!(r.recoveries, 1, "one outage, one recovery");
        // The outage lasted 40 slots; backoff doubles 1,2,4,... so the
        // reservation lands within MAX_BACKOFF slots of the repair.
        assert!(r.recovery_slots >= 40, "recovered before the link came back");
        assert!(
            r.recovery_slots < 140 - 100 + MAX_BACKOFF,
            "recovery {} slots exceeds the backoff bound",
            r.recovery_slots
        );
        assert!(r.res_attempts > r.recoveries, "probes should precede recovery");
        assert!(r.delivered > 0);
        // applied = 2 scripted events + 1 synthetic in-flight drop probe.
        assert_eq!(r.faults_applied, 3);
    }

    #[test]
    fn faulted_drops_are_charged_to_the_ledger() {
        let mut cfg = small();
        cfg.host_load = 0.2; // busy enough that drops actually strike
        let mut events = Vec::new();
        for slot in 100..140 {
            events.push(FaultEvent {
                slot,
                kind: FaultKind::CellDrop { switch: 3, input: 2 },
            });
        }
        let plan = FaultPlan::from_events(events);
        let r = run_shard_net_faulted(&cfg, &plan, &Pool::serial());
        assert!(r.is_conserved());
        assert!(r.dropped > 0, "forty drop slots at 20% load must hit");
        assert_eq!(r.faults_applied, 40);
    }
}
