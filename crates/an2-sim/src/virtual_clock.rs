//! Zhang's virtual clock on an output-queued switch — the §5.1 fairness
//! comparator.
//!
//! "Zhang suggests a *virtual clock* algorithm. Host network software
//! assigns each flow a share of the network bandwidth ... When a cell
//! arrives at a switch, it is assigned a timestamp based on when it would
//! be scheduled if the network were operating fairly; the switch gives
//! priority to cells with earlier timestamps. The virtual clock algorithm
//! requires that each output link can select arbitrarily among any of the
//! cells queued for it. This is the case in a switch with perfect output
//! queueing."
//!
//! The paper contrasts this with statistical matching, which achieves
//! similar goals on an *input*-buffered switch. This model provides the
//! output-queued reference point for those comparisons.

use crate::cell::{Arrival, Cell, FlowId};
use crate::metrics::SwitchReport;
use crate::model::{validate_arrivals, ModelMetrics, SwitchModel};
use an2_sched::det::DetHashMap;
use std::collections::BinaryHeap;

/// A queued cell ordered by (virtual timestamp, arrival sequence).
#[derive(Clone, Debug)]
struct Stamped {
    stamp: f64,
    seq: u64,
    cell: Cell,
}

impl PartialEq for Stamped {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp && self.seq == other.seq
    }
}
impl Eq for Stamped {}

impl Ord for Stamped {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest stamp.
        other
            .stamp
            .total_cmp(&self.stamp)
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Stamped {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An output-queued switch serving cells in virtual-clock order.
///
/// Flows are assigned rates (cells per slot) with
/// [`set_rate`](Self::set_rate); unassigned flows use the default rate
/// given at construction. A flow sending faster than its rate accumulates
/// timestamps in the future and defers to conforming flows — rate-based
/// fairness without per-flow reservations in the fabric.
///
/// # Examples
///
/// ```
/// use an2_sim::virtual_clock::VirtualClockSwitch;
/// use an2_sim::cell::FlowId;
/// let mut sw = VirtualClockSwitch::new(4, 0.25);
/// sw.set_rate(FlowId(7), 0.5); // flow 7 is promised half a link
/// ```
#[derive(Clone, Debug)]
pub struct VirtualClockSwitch {
    n: usize,
    default_rate: f64,
    rates: DetHashMap<FlowId, f64>,
    vclock: DetHashMap<FlowId, f64>,
    queues: Vec<BinaryHeap<Stamped>>,
    next_seq: u64,
    metrics: ModelMetrics,
}

impl VirtualClockSwitch {
    /// Creates a virtual-clock switch where unassigned flows default to
    /// `default_rate` cells per slot.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `default_rate` is not in `(0, 1]`.
    pub fn new(n: usize, default_rate: f64) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= an2_sched::MAX_PORTS, "switch size {n} out of range");
        assert!(
            default_rate > 0.0 && default_rate <= 1.0,
            "default rate must be in (0, 1]"
        );
        Self {
            n,
            default_rate,
            rates: DetHashMap::default(),
            vclock: DetHashMap::default(),
            queues: vec![BinaryHeap::new(); n],
            next_seq: 0,
            metrics: ModelMetrics::new(n),
        }
    }

    /// Assigns `rate` (cells per slot of the output link) to a flow.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]`.
    pub fn set_rate(&mut self, flow: FlowId, rate: f64) {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        self.rates.insert(flow, rate);
    }

    /// The rate in force for a flow.
    pub fn rate(&self, flow: FlowId) -> f64 {
        self.rates.get(&flow).copied().unwrap_or(self.default_rate)
    }
}

impl SwitchModel for VirtualClockSwitch {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "virtual-clock"
    }

    fn step(&mut self, arrivals: &[Arrival]) {
        let slot = self.metrics.window.slot;
        validate_arrivals::<4>(self.n, arrivals);
        for a in arrivals {
            let cell = a.into_cell(slot);
            // VirtualClock tick: auxVC = max(real time, auxVC) + 1/rate.
            let rate = self.rate(cell.flow);
            let prev = self.vclock.entry(cell.flow).or_insert(0.0);
            let stamp = prev.max(slot as f64) + 1.0 / rate;
            *prev = stamp;
            self.queues[cell.output.index()].push(Stamped {
                stamp,
                seq: self.next_seq,
                cell,
            });
            self.next_seq += 1;
            self.metrics.window.count_arrival();
        }
        for q in &mut self.queues {
            if let Some(s) = q.pop() {
                self.metrics.on_departure(&s.cell);
            }
        }
        let occ = self.queued();
        self.metrics.window.end_slot(occ);
    }

    fn queued(&self) -> usize {
        self.queues.iter().map(BinaryHeap::len).sum()
    }

    fn start_measurement(&mut self) {
        self.metrics.restart();
    }

    fn report(&self) -> SwitchReport {
        self.metrics.report(self.queued())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sched::{InputPort, OutputPort};

    /// Two flows from different inputs saturate one output.
    fn overload_two_flows(
        sw: &mut VirtualClockSwitch,
        slots: u64,
        f1: FlowId,
        f2: FlowId,
    ) -> (u64, u64) {
        let mk = |f: FlowId, i: usize| Arrival {
            input: InputPort::new(i),
            output: OutputPort::new(0),
            flow: f,
        };
        for _ in 0..slots {
            sw.step(&[mk(f1, 0), mk(f2, 1)]);
        }
        let r = sw.report();
        let get = |f: FlowId| {
            r.departures_per_flow
                .iter()
                .find(|&&(id, _)| id == f.0)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        (get(f1), get(f2))
    }

    #[test]
    fn service_follows_assigned_rates() {
        let mut sw = VirtualClockSwitch::new(4, 0.5);
        let (f1, f2) = (FlowId(1), FlowId(2));
        sw.set_rate(f1, 0.66);
        sw.set_rate(f2, 0.33);
        assert!((sw.rate(f1) - 0.66).abs() < 1e-12);
        let (d1, d2) = overload_two_flows(&mut sw, 9000, f1, f2);
        let ratio = d1 as f64 / d2 as f64;
        assert!((ratio - 2.0).abs() < 0.1, "service ratio {ratio}");
        // Work conserving: the output never idles.
        assert_eq!(d1 + d2, 9000);
    }

    #[test]
    fn equal_rates_split_evenly() {
        let mut sw = VirtualClockSwitch::new(4, 0.5);
        let (d1, d2) = overload_two_flows(&mut sw, 9000, FlowId(7), FlowId(8));
        let share = d1 as f64 / (d1 + d2) as f64;
        assert!((share - 0.5).abs() < 0.02, "share {share}");
    }

    #[test]
    fn greedy_burst_cannot_capture_the_link() {
        // Flow 1 bursts 2000 cells before flow 2 starts; once flow 2
        // arrives, its earlier virtual timestamps win immediately — flow
        // 1's burst waits instead of monopolizing.
        let mut sw = VirtualClockSwitch::new(2, 0.5);
        let (f1, f2) = (FlowId(1), FlowId(2));
        let a1 = Arrival {
            input: InputPort::new(0),
            output: OutputPort::new(0),
            flow: f1,
        };
        let a2 = Arrival {
            input: InputPort::new(1),
            output: OutputPort::new(0),
            flow: f2,
        };
        for _ in 0..2000 {
            sw.step(&[a1]);
        }
        sw.start_measurement();
        for _ in 0..2000 {
            sw.step(&[a2]);
        }
        let r = sw.report();
        let f2_served = r
            .departures_per_flow
            .iter()
            .find(|&&(id, _)| id == f2.0)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        // Flow 2 gets (at least) its fair half during the window even
        // though flow 1 has a huge backlog.
        assert!(f2_served >= 950, "flow 2 served {f2_served} of 2000");
    }

    #[test]
    fn conservation_and_line_rate() {
        use crate::sim::{simulate, SimConfig};
        use crate::traffic::RateMatrixTraffic;
        let mut sw = VirtualClockSwitch::new(8, 0.25);
        let mut t = RateMatrixTraffic::uniform(8, 0.9, 3);
        let r = simulate(
            &mut sw,
            &mut t,
            SimConfig {
                warmup_slots: 0,
                measure_slots: 5_000,
            },
        );
        assert_eq!(r.arrivals, r.departures + r.final_occupancy as u64);
        assert_eq!(sw.name(), "virtual-clock");
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn zero_rate_panics() {
        let mut sw = VirtualClockSwitch::new(2, 0.5);
        sw.set_rate(FlowId(1), 0.0);
    }
}
