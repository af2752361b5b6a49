//! The [`SwitchModel`] trait and shared measurement plumbing.
//!
//! All three switch organizations the paper compares (§3.5) — input
//! queueing with a crossbar scheduler, FIFO input queueing, and perfect
//! output queueing — advance in lockstep cell slots behind this trait, so
//! the simulation driver and the experiment harness treat them uniformly.

use crate::cell::{Arrival, Cell};
use crate::flow_slab::FlowSlab;
use crate::metrics::{DelayStats, SwitchReport};

/// A switch simulated slot-by-slot.
///
/// A step consists of: accept this slot's arrivals (at most one per
/// input), choose departures subject to the model's constraints (at most
/// one per output; for input-queued models also at most one per input),
/// and retire them. With the default unbounded buffers cells are never
/// dropped — the AN2 design point (§2.4); a finite buffer drops on
/// arrival, and the model's own ledger counts it.
pub trait SwitchModel {
    /// The switch radix.
    fn n(&self) -> usize;

    /// A short label for reports.
    fn name(&self) -> &'static str;

    /// Advances one time slot.
    ///
    /// # Panics
    ///
    /// Panics if two arrivals share an input or any port is out of range.
    fn step(&mut self, arrivals: &[Arrival]);

    /// Cells currently buffered in the switch.
    fn queued(&self) -> usize;

    /// Starts the measurement window: statistics collected so far are
    /// discarded, queues are kept (warmup truncation).
    fn start_measurement(&mut self);

    /// The statistics collected since [`start_measurement`](SwitchModel::start_measurement)
    /// (or construction, if never called).
    fn report(&self) -> SwitchReport;
}

/// The measurement window every switch model records into: slot clock,
/// window counters, per-output departures, the delay histogram and peak
/// occupancy.
///
/// Delay is recorded at departure, only for cells that *arrived* during
/// the window (standard warmup truncation — cells already queued at
/// warmup's end carry transient state). A cell arrived in the window iff
/// its delay is at most the window's length, so the check needs the delay
/// only, never the absolute arrival stamp.
#[derive(Clone, Debug)]
pub(crate) struct Window {
    /// The current slot number (slots completed so far).
    pub(crate) slot: u64,
    measure_start: u64,
    arrivals: u64,
    departures: u64,
    per_output: Vec<u64>,
    delay: DelayStats,
    peak_occupancy: usize,
}

impl Window {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            slot: 0,
            measure_start: 0,
            arrivals: 0,
            departures: 0,
            per_output: vec![0; n],
            delay: DelayStats::new(),
            peak_occupancy: 0,
        }
    }

    pub(crate) fn restart(&mut self) {
        self.measure_start = self.slot;
        self.arrivals = 0;
        self.departures = 0;
        self.per_output.fill(0);
        self.delay = DelayStats::new();
        self.peak_occupancy = 0;
    }

    pub(crate) fn count_arrival(&mut self) {
        self.arrivals = self.arrivals.wrapping_add(1);
    }

    /// One cell left through `output` after waiting `delay` slots.
    pub(crate) fn count_departure(&mut self, output: usize, delay: u64) {
        self.departures = self.departures.wrapping_add(1);
        if let Some(c) = self.per_output.get_mut(output) {
            *c = c.wrapping_add(1);
        }
        if delay <= self.slot.wrapping_sub(self.measure_start) {
            self.delay.record(delay);
        }
    }

    /// Called once per slot after departures, with the post-slot occupancy.
    pub(crate) fn end_slot(&mut self, occupancy: usize) {
        self.peak_occupancy = self.peak_occupancy.max(occupancy);
        self.slot = self.slot.wrapping_add(1);
    }

    /// The window's report; `per_flow` lists `(flow id, departures)`
    /// sorted by flow id.
    pub(crate) fn report(&self, final_occupancy: usize, per_flow: Vec<(u64, u64)>) -> SwitchReport {
        SwitchReport {
            delay: self.delay.clone(),
            slots: self.slot.wrapping_sub(self.measure_start),
            arrivals: self.arrivals,
            departures: self.departures,
            departures_per_output: self.per_output.clone(),
            departures_per_flow: per_flow,
            peak_occupancy: self.peak_occupancy,
            final_occupancy,
        }
    }
}

/// A [`Window`] plus per-flow departure counts, for the models that keep
/// cells outside a [`crate::core::QueueStore`].
#[derive(Clone, Debug)]
pub(crate) struct ModelMetrics {
    pub(crate) window: Window,
    /// Departures per flow in the window. A flow keeps its slot (at zero)
    /// across [`ModelMetrics::restart`]; the report lists nonzero counts.
    per_flow: FlowSlab<u64>,
}

impl ModelMetrics {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            window: Window::new(n),
            per_flow: FlowSlab::new(n),
        }
    }

    pub(crate) fn restart(&mut self) {
        self.window.restart();
        self.per_flow.records_mut().for_each(|c| *c = 0);
    }

    pub(crate) fn on_departure(&mut self, cell: &Cell) {
        let slot = self
            .per_flow
            .intern(cell.input.index(), cell.output.index(), cell.flow);
        if let Some(c) = self.per_flow.get_mut(slot) {
            *c += 1;
        }
        let delay = self.window.slot - cell.arrival_slot;
        self.window.count_departure(cell.output.index(), delay);
    }

    pub(crate) fn report(&self, final_occupancy: usize) -> SwitchReport {
        let mut per_flow: Vec<(u64, u64)> = self
            .per_flow
            .iter()
            .filter(|&(_, &c)| c > 0)
            .map(|(f, &c)| (f.0, c))
            .collect();
        per_flow.sort_unstable();
        self.window.report(final_occupancy, per_flow)
    }
}

/// Validates the per-slot arrival constraints shared by all models, for a
/// switch of radix `n <= 64 * W`.
///
/// # Panics
///
/// Panics if two arrivals share an input or any port index is `>= n`.
// an2-lint: allow(panic-freedom) the range and one-cell-per-input asserts are the documented arrival contract
pub(crate) fn validate_arrivals<const W: usize>(n: usize, arrivals: &[Arrival]) {
    let mut seen = an2_sched::PortSetN::<W>::new();
    for a in arrivals {
        assert!(
            a.input.index() < n && a.output.index() < n,
            "arrival ({},{}) outside {n}x{n} switch",
            a.input,
            a.output
        );
        assert!(
            seen.insert(a.input.index()),
            "two cells arrived at input {} in one slot",
            a.input
        );
    }
}

#[cfg(test)]
impl Window {
    /// Starts the clock (and the window) at `slot`.
    pub(crate) fn set_clock(&mut self, slot: u64) {
        self.slot = slot;
        self.measure_start = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sched::{InputPort, OutputPort};

    #[test]
    fn metrics_window_truncates_warmup_cells() {
        let mut m = ModelMetrics::new(2);
        let pre = Arrival::pair(2, InputPort::new(0), OutputPort::new(1)).into_cell(0);
        m.window.count_arrival();
        m.window.end_slot(1);
        m.restart(); // measurement starts at slot 1
        // The warmup cell departs at slot 3: counted as a departure but not
        // in the delay statistics.
        m.window.end_slot(1);
        m.window.end_slot(1);
        m.on_departure(&pre);
        m.window.end_slot(0);
        let post = Arrival::pair(2, InputPort::new(0), OutputPort::new(1)).into_cell(4);
        m.window.count_arrival();
        m.on_departure(&post);
        m.window.end_slot(0);
        let r = m.report(0);
        assert_eq!(r.departures, 2);
        assert_eq!(r.delay.count(), 1);
        assert_eq!(r.delay.max(), 0);
        assert_eq!(r.slots, 4);
        assert_eq!(r.arrivals, 1);
    }

    #[test]
    fn per_flow_accounting_is_sorted() {
        let mut m = ModelMetrics::new(4);
        let c1 = Arrival::pair(4, InputPort::new(3), OutputPort::new(0)).into_cell(0);
        let c2 = Arrival::pair(4, InputPort::new(0), OutputPort::new(1)).into_cell(0);
        m.on_departure(&c1);
        m.on_departure(&c2);
        m.on_departure(&c2);
        m.window.end_slot(0);
        let r = m.report(0);
        assert_eq!(r.departures_per_flow, vec![(1, 2), (12, 1)]);
    }

    #[test]
    #[should_panic(expected = "two cells arrived")]
    fn duplicate_input_arrivals_panic() {
        let a = Arrival::pair(2, InputPort::new(0), OutputPort::new(1));
        validate_arrivals::<4>(2, &[a, a]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_arrival_panics() {
        let a = Arrival::pair(8, InputPort::new(5), OutputPort::new(1));
        validate_arrivals::<4>(2, &[a]);
    }
}
