//! The one slot sequence every input-queued crossbar engine runs.
//!
//! The paper's switch does the same thing every slot (§3.1): arrivals join
//! their flow queues, the scheduler matches the requests, and matched cells
//! cross. [`SlotCore`] is the only copy of that sequence: fault
//! application ([`PortHealth`]), arrival validation and admit or drop, the
//! lifetime ledger, the queue-observation feed for queue-aware schedulers
//! (the queue matrix Q the MWM → iSLIP family reads), and schedule and
//! dequeue, recorded into one measurement window.
//!
//! Engines differ only in where cells wait, behind [`QueueStore`]:
//! [`CrossbarSwitch`](crate::switch::CrossbarSwitch) is the core over the
//! per-flow VOQs of [`VoqBuffers`](crate::voq::VoqBuffers), and
//! [`BatchCrossbar`](crate::batch::BatchCrossbar) the core over a dense
//! pair table. The network simulator steps the same core through
//! [`SlotCore::admit`], [`SlotCore::serve`] and [`SlotCore::end_slot`],
//! routing each departure onward.

use crate::cell::Arrival;
use crate::fault::{DropCause, FaultKind, FaultLog, FaultPlan, PortHealth, PortSide};
use crate::metrics::SwitchReport;
use crate::model::{validate_arrivals, SwitchModel, Window};
use an2_sched::{InputPort, MatchingN, OutputPort, PortMaskN, RequestMatrixN, Scheduler};

/// Where a switch's cells wait between arrival and departure.
pub trait QueueStore<const W: usize = 4> {
    /// What a departure hands back to the engine.
    type Cell;

    /// Whether the core may skip `schedule` on a slot with no requests
    /// (when the scheduler declares that call a no-op). A property of the
    /// store, not a setting: it decides how many scheduler calls a run
    /// makes.
    const SKIPS_IDLE: bool;

    /// The switch radix.
    fn ports(&self) -> usize;

    /// Cells currently queued.
    fn queued(&self) -> usize;

    /// The request matrix: pair `(i, j)` requests iff it holds a cell.
    fn requests(&self) -> &RequestMatrixN<W>;

    /// Queues `a`, stamped with arrival slot `stamp`; `false` if the store
    /// refuses it (drop-tail on a full queue).
    fn admit(&mut self, a: &Arrival, stamp: u64) -> bool;

    /// Charges a cell lost on the wire before admission to its pair.
    fn charge_drop(&mut self, _a: &Arrival) {}

    /// Removes pair `(i, j)`'s next cell at slot `now`, counts it against
    /// its flow's window total, and returns its queueing delay with it.
    fn depart(&mut self, i: InputPort, j: OutputPort, now: u64) -> (u64, Self::Cell);

    /// Pair `(i, j)`'s queue depth and head-of-line cell age at `now`.
    fn observation(&self, i: InputPort, j: OutputPort, now: u64) -> (u32, u32);

    /// Zeroes the per-flow departure counts (a new measurement window).
    fn restart_window(&mut self);

    /// `(flow id, departures)` of every flow that departed in the window,
    /// sorted by flow id.
    fn flow_departures(&self) -> Vec<(u64, u64)>;

    /// Cells taken out of the queues other than by departing.
    fn discarded(&self) -> u64 {
        0
    }

    /// Touches the records of `pairs` (this slot's arrivals, then its
    /// matching) ahead of the dependent updates, so their cache misses
    /// overlap.
    fn warm(&self, _pairs: impl Iterator<Item = (InputPort, OutputPort)>) {}
}

/// One switch: a [`QueueStore`] `Q`, a scheduler `S` of bitset width `W`,
/// its port health, its measurement window and its lifetime ledger.
///
/// # Examples
///
/// ```
/// use an2_sched::{InputPort, OutputPort, Pim};
/// use an2_sim::cell::Arrival;
/// use an2_sim::switch::CrossbarSwitch;
///
/// let mut sw = CrossbarSwitch::new(Pim::new(4, 1));
/// sw.run_slot(&[Arrival::pair(4, InputPort::new(0), OutputPort::new(2))], None);
/// assert_eq!(sw.departed(), 1);
/// assert!(sw.verify_conservation().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct SlotCore<Q, S, const W: usize = 4> {
    pub(crate) store: Q,
    scheduler: S,
    health: PortHealth<W>,
    pub(crate) window: Window,
    /// Lifetime cells presented for admission (never reset).
    offered: u64,
    /// Lifetime cells lost before admission, on the wire or to a full
    /// queue.
    dropped: u64,
    /// Lifetime cells that crossed the crossbar.
    departed: u64,
}

impl<const W: usize, Q: QueueStore<W>, S: Scheduler<W>> SlotCore<Q, S, W> {
    /// A switch over `store`, scheduled by `scheduler`, with every port in
    /// service and the clock at slot 0.
    ///
    /// # Panics
    ///
    /// Panics if the store's radix is 0 or exceeds the width's capacity.
    pub fn from_parts(store: Q, scheduler: S) -> Self {
        let n = store.ports();
        Self {
            store,
            scheduler,
            health: PortHealth::new(n),
            window: Window::new(n),
            offered: 0,
            dropped: 0,
            departed: 0,
        }
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Mutable access to the underlying scheduler (e.g. to adjust
    /// statistical-matching reservations mid-run).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// The port health fault events have left.
    pub fn health(&self) -> &PortHealth<W> {
        &self.health
    }

    /// The current port health mask.
    pub fn port_mask(&self) -> PortMaskN<W> {
        self.health.mask()
    }

    /// Installs a port health mask on the switch and its scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the mask's size differs from the switch radix.
    // an2-lint: allow(panic-freedom) a mis-sized mask is a harness bug, not degraded traffic; the trait documents the panic
    pub fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        assert_eq!(mask.n(), self.store.ports(), "mask size mismatch");
        self.health.set_mask(mask);
        self.scheduler.set_port_mask(mask);
    }

    /// Input–output pairs with at least one queued cell. O(1): the
    /// request matrix keeps the count.
    pub fn active_pairs(&self) -> usize {
        self.store.requests().len()
    }

    /// Lifetime cells offered to the switch: admitted plus dropped.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Lifetime cells admitted into the queues.
    pub fn admitted(&self) -> u64 {
        self.offered.wrapping_sub(self.dropped)
    }

    /// Lifetime cells lost before admission: injected faults, corrupted
    /// cells and drop-tail on a full queue.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Lifetime cells transmitted through the crossbar — the cheap counter
    /// chaos drivers difference per slot for windowed throughput.
    pub fn departed(&self) -> u64 {
        self.departed
    }

    /// The O(1) conservation ledger: every admitted cell has departed, is
    /// still queued, or was discarded from its queue by the store (a
    /// rerouted or stranded flow). Holds after every slot, faulted or not.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance when the ledger is violated.
    pub fn verify_conservation(&self) -> Result<(), String> {
        let (queued, discarded) = (self.store.queued() as u64, self.store.discarded());
        if self.admitted() != self.departed + queued + discarded {
            return Err(format!(
                "conservation violated: {} admitted != {} departed + {queued} queued \
                 + {discarded} discarded",
                self.admitted(),
                self.departed
            ));
        }
        Ok(())
    }

    /// Advances one slot under a fault plan: applies the plan's events due
    /// this slot (masking ports, losing arrivals, suspending scheduling
    /// during clock drift), then runs the ordinary arrival/schedule/
    /// transmit sequence, recording every applied fault and lost cell in
    /// `log`.
    ///
    /// The `switch` tag on events is ignored: the single-switch harness
    /// applies every due event to itself (build per-switch plans when
    /// driving several switches). An event naming a port outside the
    /// switch is logged as applied and otherwise ignored. Failed ports
    /// keep *buffering* arrivals; the mask only gates scheduling. With an
    /// empty plan this is bit-identical to [`SwitchModel::step`].
    ///
    /// # Panics
    ///
    /// Panics on the usual arrival violations.
    // an2-lint: hot
    pub fn step_faulted(&mut self, arrivals: &[Arrival], plan: &mut FaultPlan, log: &mut FaultLog) {
        let slot = self.window.slot;
        let mut changed = false;
        for ev in plan.due(slot) {
            changed |= self.health.apply(slot, ev.kind);
            log.record_applied(*ev);
        }
        if changed {
            self.scheduler.set_port_mask(self.health.mask());
        }
        self.run_slot(arrivals, Some(log));
    }

    /// Applies one fault event now.
    pub fn apply(&mut self, kind: FaultKind) {
        if self.health.apply(self.window.slot, kind) {
            self.scheduler.set_port_mask(self.health.mask());
        }
    }

    /// Takes one port out of service (`up == false`) or back into it.
    pub fn set_port(&mut self, side: PortSide, port: usize, up: bool) {
        if self.health.set_port(side, port, up) {
            self.scheduler.set_port_mask(self.health.mask());
        }
    }

    /// One whole slot: `arrivals` are validated and admitted or dropped
    /// (each drop logged to `log` when given), the crossbar is scheduled
    /// and the matched cells depart.
    ///
    /// # Panics
    ///
    /// Panics if two arrivals share an input, any port is out of range,
    /// or the store refuses the arrival's flow outright.
    // an2-lint: hot
    pub fn run_slot(&mut self, arrivals: &[Arrival], mut log: Option<&mut FaultLog>) {
        let slot = self.window.slot;
        validate_arrivals::<W>(self.store.ports(), arrivals);
        self.store.warm(arrivals.iter().map(|a| (a.input, a.output)));
        for a in arrivals {
            if let (Some(cause), Some(log)) = (self.admit(a, slot), log.as_deref_mut()) {
                log.record_drop(slot, 0, a.input.index(), a.flow.0, cause);
            }
        }
        self.serve(|_| {});
        self.end_slot();
    }

    /// Offers one cell, stamped `stamp`, to the switch: an arrival fault
    /// at its input or a full queue drops it. Returns the drop's cause.
    #[inline]
    pub fn admit(&mut self, a: &Arrival, stamp: u64) -> Option<DropCause> {
        self.offered = self.offered.wrapping_add(1);
        let cause = match self.health.arrival_fault(a.input.index()) {
            Some(cause) => {
                self.store.charge_drop(a);
                cause
            }
            None if self.store.admit(a, stamp) => {
                self.window.count_arrival();
                return None;
            }
            None => DropCause::BufferFull,
        };
        self.dropped = self.dropped.wrapping_add(1);
        Some(cause)
    }

    /// Schedules the crossbar, unless a clock excursion suspends it, and
    /// hands every departing cell to `depart`. A queue-aware scheduler is
    /// first told each active pair's depth and head-of-line age.
    // an2-lint: hot
    pub fn serve(&mut self, mut depart: impl FnMut(Q::Cell)) {
        let slot = self.window.slot;
        if self.health.drifting(slot) {
            return;
        }
        let matching = if Q::SKIPS_IDLE
            && self.store.requests().is_empty()
            && self.scheduler.idle_slot_is_noop()
        {
            MatchingN::new(self.store.ports())
        } else {
            if self.scheduler.wants_queue_observations() {
                for (i, j) in self.store.requests().pairs() {
                    let (depth, age) = self.store.observation(i, j, slot);
                    self.scheduler.observe_queue(i, j, depth, age);
                }
            }
            self.scheduler.schedule(self.store.requests())
        };
        debug_assert!(
            matching.respects(self.store.requests()),
            "{} scheduled a pair with no queued cell",
            self.scheduler.name()
        );
        self.store.warm(matching.pairs());
        for (i, j) in matching.pairs() {
            let (delay, cell) = self.store.depart(i, j, slot);
            self.departed = self.departed.wrapping_add(1);
            self.window.count_departure(j.index(), delay);
            depart(cell);
        }
    }

    /// Closes the slot: arrival faults expire, peak occupancy is sampled
    /// and the clock advances.
    // an2-lint: hot
    pub fn end_slot(&mut self) {
        self.health.end_slot();
        self.window.end_slot(self.store.queued());
    }
}

impl<const W: usize, Q: QueueStore<W>, S: Scheduler<W>> SwitchModel for SlotCore<Q, S, W> {
    fn n(&self) -> usize {
        self.store.ports()
    }

    fn name(&self) -> &'static str {
        self.scheduler.name()
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        self.run_slot(arrivals, None);
    }

    fn queued(&self) -> usize {
        self.store.queued()
    }

    fn start_measurement(&mut self) {
        self.window.restart();
        self.store.restart_window();
    }

    fn report(&self) -> SwitchReport {
        self.window
            .report(self.store.queued(), self.store.flow_departures())
    }
}

#[cfg(test)]
impl<const W: usize, Q: QueueStore<W>, S: Scheduler<W>> SlotCore<Q, S, W> {
    /// Starts the clock (and the measurement window) at `slot`; call
    /// before the first slot.
    pub(crate) fn set_clock(&mut self, slot: u64) {
        self.window.set_clock(slot);
    }
}
