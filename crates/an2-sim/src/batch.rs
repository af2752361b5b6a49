//! Batched structure-of-arrays crossbar engine for large radices.
//!
//! [`CrossbarSwitch`](crate::switch::CrossbarSwitch) keeps a slab of
//! per-flow records, each a route pin plus a heap-allocated `VecDeque` of
//! whole [`Cell`](crate::cell::Cell)s, and per-pair round-robin lists of
//! slab slots. That layout supports the general many-flows-per-pair
//! experiments, but at N=1024 the hops from pair list to flow record to
//! cell deque, and the per-cell `Cell` bookkeeping, dominate the slot
//! loop. [`BatchCrossbar`] is the wide-radix engine behind the scaling
//! benches: it restricts itself to the *one-flow-per-pair*
//! convention (`FlowId::for_pair`, which every uniform/load-sweep workload
//! uses) and stores each input–output pair's queue as a FIFO of `u32`
//! arrival slots in one dense `n*n` table of cache-line records.
//!
//! Under that convention the two engines are **bit-identical**: the VOQ
//! round-robin over flows degenerates to a per-pair FIFO, so pushing
//! arrival slots instead of `Cell` objects loses nothing, and the
//! incremental request-matrix maintenance (set on first cell, clear on
//! drain) matches [`crate::voq::VoqBuffers`] exactly. Queue-aware
//! schedulers get the same per-pair depth and head-of-line age the scalar
//! engine reports, read from the pair's record. The property test
//! `tests/batch_vs_scalar.rs` pins byte-identical [`SwitchReport`]
//! digests across schedulers, sizes and loads.
//!
//! Layout at N=1024 (width `W = 16`):
//!
//! ```text
//! pairs:     [PairQueue; n*n]  row-major, pairs[i*n+j] = one 64-byte line:
//!                              7 inline u32 slots + depth + departure count
//!                              (+ spill ring pointer for deep queues)
//! requests:  RequestMatrixN<W> 16 words/row bit-matrix, set/clear deltas
//! per_output:[u64; n]          departure counts per output link
//! ```
//!
//! Arrivals address random pairs, so the table is touched at cache-miss
//! granularity; packing a pair's queue, depth and counter into one line
//! (instead of ring-header + boxed-buffer + count-array, three lines) is
//! worth ~2x on the N=1024 slot rate.
//!
//! The slot sequence itself — faults, admission, the lifetime ledger,
//! the queue-observation feed, scheduling and departures — is
//! [`SlotCore`]'s; this engine is the core over the pair table. Arrival
//! stamps are `u32` and wrap: a delay is `now - stamp` in wrapping `u32`
//! arithmetic, exact for any delay below 2^32 slots, so runs may pass
//! slot 2^32.

use crate::cell::{Arrival, FlowId};
use crate::core::{QueueStore, SlotCore};
use an2_sched::{InputPort, OutputPort, PortSetN, RequestMatrixN, Scheduler};

/// Cells a [`PairQueue`] holds inline before spilling to a boxed ring.
const QUEUE_INLINE: usize = 7;

/// One input–output pair's FIFO of `u32` arrival slots plus its departure
/// counter, packed into a single 64-byte cache line.
///
/// Arrivals land on random pairs of an `n*n` table, so every queue touch
/// is a cache miss; what matters is how *many* lines each touch drags in.
/// Keeping the first [`QUEUE_INLINE`] slots, the depth, and the departure
/// count in one aligned record makes the common shallow-queue case
/// (steady-state mean depth ≈ 1) exactly one line per enqueue/dequeue —
/// the separate ring-header / boxed-buffer / count-array layout this
/// replaced paid three.
///
/// A queue deeper than [`QUEUE_INLINE`] spills to a power-of-two boxed
/// ring and stays spilled (two lines per touch) until the engine resets;
/// shrinking back was measured as churn without benefit since deep pairs
/// under sustained load spill right back.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PairQueue {
    /// Inline FIFO storage, front-first in `[0..len)` while unspilled.
    inline: [u32; QUEUE_INLINE],
    /// Queue depth, inline or spilled.
    len: u32,
    /// Ring head index; meaningful only once spilled.
    head: u32,
    /// Cells of this pair lost to injected faults over the engine's whole
    /// lifetime (never reset: the drop ledger spans measurement windows).
    dropped: u32,
    /// Departures from this pair in the measurement window.
    count: u64,
    /// Spilled ring storage; empty means unspilled, else a power of two.
    spill: Box<[u32]>,
}

impl PairQueue {
    #[inline]
    fn enqueue(&mut self, v: u32) {
        let len = self.len as usize;
        let slot = if !self.spill.is_empty() {
            if len == self.spill.len() {
                self.grow();
            }
            let tail = (self.head as usize).wrapping_add(len) & self.spill.len().wrapping_sub(1);
            self.spill.get_mut(tail)
        } else if len < QUEUE_INLINE {
            self.inline.get_mut(len)
        } else {
            self.spill_out();
            self.spill.get_mut(len)
        };
        if let Some(slot) = slot {
            *slot = v;
        }
        self.len = self.len.wrapping_add(1);
    }

    #[inline]
    fn dequeue(&mut self) -> u32 {
        debug_assert!(self.len > 0, "dequeue from empty pair queue");
        self.len = self.len.wrapping_sub(1);
        if self.spill.is_empty() {
            let [v, ..] = self.inline;
            // One-lane shift within the same cache line: cheaper than ring
            // arithmetic would make the spilled-or-not branch.
            self.inline.copy_within(1..QUEUE_INLINE, 0);
            v
        } else {
            let mask = self.spill.len().wrapping_sub(1);
            let v = self.spill.get(self.head as usize).copied().unwrap_or(0);
            self.head = ((self.head as usize).wrapping_add(1) & mask) as u32;
            v
        }
    }

    /// The head-of-line cell's arrival slot, or `None` when empty.
    #[inline]
    fn front(&self) -> Option<u32> {
        if self.len == 0 {
            None
        } else if self.spill.is_empty() {
            self.inline.first().copied()
        } else {
            self.spill.get(self.head as usize).copied()
        }
    }

    /// First overflow past the inline slots: moves them into a fresh ring
    /// with room to grow (head at 0, so the caller appends at `len`).
    // an2-lint: cold
    #[cold]
    fn spill_out(&mut self) {
        let mut buf = vec![0u32; (QUEUE_INLINE + 1).next_power_of_two() * 2].into_boxed_slice();
        buf[..QUEUE_INLINE].copy_from_slice(&self.inline);
        self.spill = buf;
        self.head = 0;
    }

    /// Doubles spilled capacity, compacting the live window to the front.
    // an2-lint: cold
    #[cold]
    fn grow(&mut self) {
        let cap = self.spill.len();
        let mut next = vec![0u32; cap * 2].into_boxed_slice();
        let mask = cap - 1;
        for k in 0..self.len as usize {
            next[k] = self.spill[(self.head as usize + k) & mask];
        }
        self.spill = next;
        self.head = 0;
    }
}

/// The pair store: one [`PairQueue`] per input–output pair in a dense
/// row-major `n*n` table, plus the request matrix and the queued-cell
/// count. Skips `schedule` on idle slots when the scheduler allows it.
#[derive(Debug)]
pub struct PairTable<const W: usize = 4> {
    n: usize,
    requests: RequestMatrixN<W>,
    pairs: Vec<PairQueue>,
    queued: usize,
}

impl<const W: usize> PairTable<W> {
    /// An empty table for an `n`-port switch.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(
            n <= PortSetN::<W>::CAPACITY,
            "switch size {n} exceeds width capacity {}",
            PortSetN::<W>::CAPACITY
        );
        let mut pairs = Vec::new();
        pairs.resize_with(n * n, PairQueue::default);
        Self {
            n,
            requests: RequestMatrixN::new(n),
            pairs,
            queued: 0,
        }
    }
}

impl<const W: usize> QueueStore<W> for PairTable<W> {
    type Cell = ();

    const SKIPS_IDLE: bool = true;

    fn ports(&self) -> usize {
        self.n
    }

    fn queued(&self) -> usize {
        self.queued
    }

    fn requests(&self) -> &RequestMatrixN<W> {
        &self.requests
    }

    #[inline]
    // an2-lint: allow(panic-freedom) the one-flow-per-pair assert is this store's documented contract
    fn admit(&mut self, a: &Arrival, stamp: u64) -> bool {
        assert!(
            a.flow == FlowId::for_pair(self.n, a.input, a.output),
            "flow {} is not the pair flow of ({},{}): \
             BatchCrossbar requires one flow per pair; use CrossbarSwitch",
            a.flow,
            a.input,
            a.output
        );
        let p = a.input.index() * self.n + a.output.index();
        let Some(q) = self.pairs.get_mut(p) else {
            return false;
        };
        if q.len == 0 {
            self.requests.set(a.input, a.output);
        }
        q.enqueue(stamp as u32);
        self.queued = self.queued.wrapping_add(1);
        true
    }

    fn charge_drop(&mut self, a: &Arrival) {
        let p = a.input.index() * self.n + a.output.index();
        if let Some(q) = self.pairs.get_mut(p) {
            q.dropped = q.dropped.wrapping_add(1);
        }
    }

    #[inline]
    fn depart(&mut self, i: InputPort, j: OutputPort, now: u64) -> (u64, ()) {
        let p = i.index() * self.n + j.index();
        let Some(q) = self.pairs.get_mut(p) else {
            return (0, ());
        };
        let stamp = q.dequeue();
        q.count = q.count.wrapping_add(1);
        if q.len == 0 {
            self.requests.clear(i, j);
        }
        self.queued = self.queued.wrapping_sub(1);
        (u64::from((now as u32).wrapping_sub(stamp)), ())
    }

    fn observation(&self, i: InputPort, j: OutputPort, now: u64) -> (u32, u32) {
        self.pairs
            .get(i.index() * self.n + j.index())
            .map_or((0, 0), |q| {
                let age = q.front().map_or(0, |stamp| (now as u32).wrapping_sub(stamp));
                (q.len, age)
            })
    }

    fn restart_window(&mut self) {
        for q in &mut self.pairs {
            q.count = 0;
        }
    }

    fn flow_departures(&self) -> Vec<(u64, u64)> {
        let mut per_flow = Vec::new();
        for (p, q) in self.pairs.iter().enumerate() {
            if q.count > 0 {
                per_flow.push((p as u64, q.count));
            }
        }
        per_flow
    }

    /// Reads the pair records so their cache misses issue as independent
    /// loads the core overlaps. (A prefetch intrinsic would need unsafe; a
    /// black-boxed read is the safe equivalent.)
    fn warm(&self, pairs: impl Iterator<Item = (InputPort, OutputPort)>) {
        let mut warm = 0u32;
        for (i, j) in pairs {
            let p = i.index().wrapping_mul(self.n).wrapping_add(j.index());
            warm = warm.wrapping_add(self.pairs.get(p).map_or(0, |q| q.len));
        }
        std::hint::black_box(warm);
    }
}

/// Structure-of-arrays crossbar simulator for the one-flow-per-pair
/// regime, generic over the scheduler bitset width `W`: the slot core over
/// the pair table.
///
/// Behaves identically to [`CrossbarSwitch`](crate::switch::CrossbarSwitch)
/// with unbounded buffers when every arrival's flow id is
/// [`FlowId::for_pair`]; panics on any other flow id (use the scalar
/// engine for many-flows-per-pair experiments).
///
/// # Examples
///
/// ```
/// use an2_sched::Pim;
/// use an2_sim::batch::BatchCrossbar;
/// use an2_sim::sim::{simulate, SimConfig};
/// use an2_sim::traffic::RateMatrixTraffic;
///
/// let mut switch = BatchCrossbar::new(16, Pim::new(16, 42));
/// let mut traffic = RateMatrixTraffic::uniform(16, 0.80, 43);
/// let report = simulate(&mut switch, &mut traffic, SimConfig::quick());
/// assert!(report.delay.mean() < 10.0);
/// ```
pub type BatchCrossbar<S, const W: usize = 4> = SlotCore<PairTable<W>, S, W>;

impl<const W: usize, S: Scheduler<W>> BatchCrossbar<S, W> {
    /// Creates an `n`-port batch engine driven by `scheduler`.
    ///
    /// Allocates the full `n*n` pair table up front (~64 MB at N=1024,
    /// one cache line per pair); the slot loop itself never allocates
    /// except for amortized spill-ring growth.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the width's capacity (`W * 64`).
    pub fn new(n: usize, scheduler: S) -> Self {
        SlotCore::from_parts(PairTable::new(n), scheduler)
    }

    /// Advances one cell slot: arrivals join their pair FIFOs, the
    /// scheduler computes a matching, matched pairs each transmit their
    /// head-of-queue cell.
    ///
    /// # Panics
    ///
    /// Panics if two arrivals share an input, any port is out of range, or
    /// an arrival's flow id is not `FlowId::for_pair` for its pair.
    // an2-lint: hot
    pub fn step_slot(&mut self, arrivals: &[Arrival]) {
        self.run_slot(arrivals, None);
    }

    /// Lifetime fault drops charged to pair `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range.
    pub fn pair_drops(&self, i: usize, j: usize) -> u64 {
        let n = self.store.n;
        assert!(i < n && j < n, "pair ({i},{j}) out of range");
        self.store.pairs.get(i * n + j).map_or(0, |q| u64::from(q.dropped))
    }

    /// The O(n^2) half of the drop ledger: the per-pair drop counters must
    /// sum to the engine total. Intended for end-of-run audits, not the
    /// slot loop.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance when a per-pair counter and
    /// the total disagree.
    pub fn verify_drop_ledger(&self) -> Result<(), String> {
        let per_pair: u64 = self.store.pairs.iter().map(|q| u64::from(q.dropped)).sum();
        if per_pair != self.dropped() {
            return Err(format!(
                "drop ledger violated: per-pair drops sum to {per_pair} \
                 but the engine counted {}",
                self.dropped()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultLog, FaultPlan};
    use crate::metrics::SwitchReport;
    use crate::model::SwitchModel;
    use crate::sim::{simulate, SimConfig};
    use crate::switch::CrossbarSwitch;
    use crate::traffic::RateMatrixTraffic;
    use an2_sched::islip::RoundRobinMatching;
    use an2_sched::Pim;

    #[test]
    fn pair_queue_fifo_order_across_spill_and_growth() {
        // 100 cells crosses inline -> spill (at 8) and several doublings;
        // interleaved dequeues exercise the wrapped-ring compaction.
        let mut r = PairQueue::default();
        for v in 0..100u32 {
            r.enqueue(v);
        }
        for v in 0..50u32 {
            assert_eq!(r.dequeue(), v);
        }
        for v in 100..200u32 {
            r.enqueue(v);
        }
        for v in 50..200u32 {
            assert_eq!(r.dequeue(), v);
        }
        assert_eq!(r.len, 0);
    }

    #[test]
    fn pair_queue_inline_only_never_allocates_spill() {
        let mut r = PairQueue::default();
        // Stay at depth <= QUEUE_INLINE across many operations.
        for round in 0..50u32 {
            for v in 0..QUEUE_INLINE as u32 {
                r.enqueue(round * 100 + v);
            }
            for v in 0..QUEUE_INLINE as u32 {
                assert_eq!(r.dequeue(), round * 100 + v);
            }
        }
        assert!(r.spill.is_empty(), "shallow queue must not spill");
    }

    fn reports_match(a: &SwitchReport, b: &SwitchReport) {
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.departures_per_output, b.departures_per_output);
        assert_eq!(a.departures_per_flow, b.departures_per_flow);
        assert_eq!(a.peak_occupancy, b.peak_occupancy);
        assert_eq!(a.final_occupancy, b.final_occupancy);
        assert_eq!(a.delay, b.delay);
    }

    #[test]
    fn matches_scalar_engine_pim() {
        let mut batch = BatchCrossbar::new(8, Pim::new(8, 42));
        let mut scalar = CrossbarSwitch::new(Pim::new(8, 42));
        let cfg = SimConfig {
            warmup_slots: 100,
            measure_slots: 1000,
        };
        let rb = simulate(&mut batch, &mut RateMatrixTraffic::uniform(8, 0.9, 7), cfg);
        let rs = simulate(&mut scalar, &mut RateMatrixTraffic::uniform(8, 0.9, 7), cfg);
        reports_match(&rb, &rs);
    }

    #[test]
    fn matches_scalar_engine_islip() {
        let mut batch = BatchCrossbar::new(16, RoundRobinMatching::islip(16, 4));
        let mut scalar = CrossbarSwitch::new(RoundRobinMatching::islip(16, 4));
        let cfg = SimConfig {
            warmup_slots: 50,
            measure_slots: 500,
        };
        let rb = simulate(&mut batch, &mut RateMatrixTraffic::uniform(16, 1.0, 9), cfg);
        let rs = simulate(&mut scalar, &mut RateMatrixTraffic::uniform(16, 1.0, 9), cfg);
        reports_match(&rb, &rs);
    }

    #[test]
    fn conserves_cells_over_full_window() {
        let mut batch = BatchCrossbar::new(8, Pim::new(8, 3));
        let cfg = SimConfig {
            warmup_slots: 0,
            measure_slots: 2000,
        };
        let r = simulate(&mut batch, &mut RateMatrixTraffic::uniform(8, 0.7, 5), cfg);
        assert!(r.is_conserved());
    }

    #[test]
    fn events_naming_a_port_outside_the_switch_are_ignored() {
        use crate::fault::{FaultEvent, FaultKind, PortSide};
        use crate::traffic::Traffic;
        let run = |events: Vec<FaultEvent>| {
            let mut batch = BatchCrossbar::new(8, Pim::new(8, 3));
            let mut t = RateMatrixTraffic::uniform(8, 0.9, 5);
            let mut plan = FaultPlan::from_events(events);
            let mut log = FaultLog::new();
            let mut buf = Vec::new();
            for s in 0..300 {
                buf.clear();
                t.arrivals(s, &mut buf);
                batch.step_faulted(&buf, &mut plan, &mut log);
            }
            (batch.report(), log)
        };
        let (clean, _) = run(Vec::new());
        let (r, log) = run(vec![
            FaultEvent {
                slot: 10,
                kind: FaultKind::PortFail {
                    switch: 0,
                    side: PortSide::Input,
                    port: 8,
                },
            },
            FaultEvent {
                slot: 11,
                kind: FaultKind::CellDrop { switch: 0, input: 8 },
            },
        ]);
        assert_eq!(log.applied().len(), 2, "still logged as applied");
        assert_eq!(log.cells_dropped(), 0);
        reports_match(&r, &clean);
    }

    #[test]
    fn clock_started_near_u32_wrap_reports_the_same() {
        // Stamps are u32: a run whose clock crosses 2^32 must report
        // exactly what the same run from slot 0 reports.
        let run = |start: u64| {
            let mut batch = BatchCrossbar::new(8, Pim::new(8, 3));
            batch.set_clock(start);
            let cfg = SimConfig {
                warmup_slots: 0,
                measure_slots: 1000,
            };
            simulate(&mut batch, &mut RateMatrixTraffic::uniform(8, 0.95, 5), cfg)
        };
        let (wrapped, plain) = (run((1 << 32) - 100), run(0));
        assert!(wrapped.departures > 0);
        reports_match(&wrapped, &plain);
    }

    #[test]
    fn wide_width_runs_n_512() {
        // Smoke: the W=16 instantiation schedules beyond the narrow cap.
        use an2_sched::WidePim;
        let mut batch: BatchCrossbar<_, 16> = BatchCrossbar::new(512, WidePim::new(512, 11));
        let cfg = SimConfig {
            warmup_slots: 0,
            measure_slots: 50,
        };
        let r = simulate(&mut batch, &mut RateMatrixTraffic::uniform(512, 0.3, 2), cfg);
        assert!(r.is_conserved());
        assert!(r.departures > 0);
    }

    #[test]
    #[should_panic(expected = "one flow per pair")]
    fn non_pair_flow_panics() {
        let mut batch = BatchCrossbar::new(4, Pim::new(4, 1));
        let mut a = Arrival::pair(
            4,
            an2_sched::InputPort::new(0),
            an2_sched::OutputPort::new(1),
        );
        a.flow = FlowId(99);
        batch.step_slot(&[a]);
    }

    #[test]
    #[should_panic(expected = "two cells arrived")]
    fn duplicate_input_panics() {
        let mut batch = BatchCrossbar::new(4, Pim::new(4, 1));
        let a = Arrival::pair(
            4,
            an2_sched::InputPort::new(0),
            an2_sched::OutputPort::new(1),
        );
        batch.step_slot(&[a, a]);
    }
}
