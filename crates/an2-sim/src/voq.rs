//! Random-access input buffers, organized as the paper describes (§3.3):
//!
//! > "Each flow has its own FIFO queue of buffered cells. A flow is
//! > *eligible* for scheduling if it has at least one cell queued. A list
//! > of eligible flows is kept for each input-output pair. If there is at
//! > least one eligible flow for a given input-output pair, the input
//! > requests the output during parallel iterative matching. If the
//! > request is granted, one of the eligible flows is chosen for
//! > scheduling in round-robin fashion."
//!
//! These are virtual output queues (VOQs) with per-flow FIFO sub-queues.
//! Cells within a flow are never reordered; cells of different flows can
//! be. Because every cell of a flow is routed to the same output, "either
//! none of the cells of a flow are blocked or all are" — no head-of-line
//! blocking (§3.1).

use crate::cell::{Cell, FlowId};
use crate::flow_slab::FlowSlab;
use an2_sched::{InputPort, OutputPort, RequestMatrix};
use std::collections::VecDeque;

/// Outcome of [`VoqBuffers::push`]: whether the buffer admitted the cell.
///
/// Unbounded buffers (the default) always admit. Once a finite per-pair
/// capacity is configured with [`VoqBuffers::set_pair_capacity`], a push to
/// a full pair drops the *arriving* cell (drop-tail) and reports it here;
/// callers must consume the outcome so dropped cells are accounted for, not
/// silently lost.
#[must_use = "dropped cells must be accounted for by the caller"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The cell was queued.
    Admitted,
    /// The cell was discarded because its pair's VOQ was full.
    Dropped,
}

impl PushOutcome {
    /// `true` if the cell was queued.
    pub fn is_admitted(self) -> bool {
        self == PushOutcome::Admitted
    }

    /// `true` if the cell was discarded.
    pub fn is_dropped(self) -> bool {
        self == PushOutcome::Dropped
    }
}

/// How [`VoqBuffers::pop`] chooses among the eligible flows of one
/// input–output pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ServiceDiscipline {
    /// Round-robin among eligible flows — the AN2 switch's discipline
    /// (§3.3: "one of the eligible flows is chosen ... in round-robin
    /// fashion").
    #[default]
    RoundRobin,
    /// Strict arrival order across flows (oldest queued cell of the pair
    /// first) — the discipline the paper's Figure 9 illustration assumes
    /// when flows merge into one stream.
    Fifo,
}

/// One flow's buffer state: its route pin and its FIFO of queued cells.
#[derive(Clone, Debug, Default)]
struct FlowQueue {
    /// The output the flow is pinned to (flows never change route, §2);
    /// `None` until first seen and after [`VoqBuffers::drop_flow`].
    output: Option<OutputPort>,
    /// Queued cells with their arrival sequence numbers, oldest first.
    cells: VecDeque<(u64, Cell)>,
}

/// The input-side buffer pool of one switch: per-flow FIFO queues plus
/// per-(input, output) round-robin lists of eligible flows.
///
/// Each flow gets one record in a dense slab the first time it is seen,
/// holding its route pin and its queue. The eligible lists hold slab slots,
/// so serving a pair, reading its head cell and scanning for the oldest
/// cell never hash a [`FlowId`]. Admission maps the arriving cell's flow
/// to its slot through a per-pair cache of the last flow seen there, and
/// falls back to a flow-id map only on a miss; under the one-flow-per-pair
/// convention every push after a pair's first is hash-free. The per-pair
/// tables are flat `n * n` vectors indexed `i * n + j`.
///
/// # Examples
///
/// ```
/// use an2_sim::voq::VoqBuffers;
/// use an2_sim::cell::{Arrival, Cell, FlowId};
/// use an2_sched::{InputPort, OutputPort};
///
/// let mut voq = VoqBuffers::new(4);
/// let a = Arrival::pair(4, InputPort::new(0), OutputPort::new(2));
/// assert!(voq.push(a.into_cell(0)).is_admitted());
/// assert_eq!(voq.len(), 1);
/// let c = voq.pop(InputPort::new(0), OutputPort::new(2)).unwrap();
/// assert_eq!(c.arrival_slot, 0);
/// assert!(voq.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct VoqBuffers {
    n: usize,
    discipline: ServiceDiscipline,
    /// Monotonic push counter; orders cells across flows for `Fifo`.
    next_seq: u64,
    /// Every flow seen so far, with its pin and queue.
    flows: FlowSlab<FlowQueue>,
    /// `eligible[i * n + j]` = round-robin queue of the slab slots of the
    /// flows with cells at input `i` for output `j`.
    eligible: Vec<VecDeque<u32>>,
    /// Total queued cells.
    total: usize,
    /// Queued cells per input (for occupancy metrics).
    per_input: Vec<usize>,
    /// Incrementally maintained request matrix: bit `(i, j)` is set iff
    /// `eligible[i * n + j]` is non-empty. Kept in sync by `push`/`pop` so
    /// [`VoqBuffers::requests`] is a free borrow instead of an `O(N²)`
    /// rebuild every slot.
    requests: RequestMatrix,
    /// Scratch for [`VoqBuffers::oldest_per_input`].
    heads: Vec<Option<Cell>>,
    /// Scratch: arrival sequence of each entry in `heads`.
    head_seqs: Vec<u64>,
    /// Per-pair cell budget; `None` = unbounded (the pre-fault default).
    capacity: Option<usize>,
    /// `pair_count[i * n + j]` = queued cells of pair `(i, j)`, maintained
    /// so capacity checks and [`VoqBuffers::pair_occupancy`] are O(1).
    pair_count: Vec<usize>,
    /// Cells discarded (drop-tail, redirect overflow, stranded flows).
    drops_total: u64,
    /// Discards per input port.
    drops_per_input: Vec<u64>,
}

impl VoqBuffers {
    /// Creates empty buffers for an `n`-port switch with the AN2
    /// round-robin flow discipline.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PORTS`.
    pub fn new(n: usize) -> Self {
        Self::with_discipline(n, ServiceDiscipline::RoundRobin)
    }

    /// Creates empty buffers with an explicit flow-service discipline.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PORTS`.
    pub fn with_discipline(n: usize, discipline: ServiceDiscipline) -> Self {
        assert!(n > 0, "switch must have at least one port");
        assert!(n <= an2_sched::MAX_PORTS, "switch size {n} out of range");
        Self {
            n,
            discipline,
            next_seq: 0,
            flows: FlowSlab::new(n),
            eligible: vec![VecDeque::new(); n * n],
            total: 0,
            per_input: vec![0; n],
            requests: RequestMatrix::new(n),
            heads: Vec::new(),
            head_seqs: Vec::new(),
            capacity: None,
            pair_count: vec![0; n * n],
            drops_total: 0,
            drops_per_input: vec![0; n],
        }
    }

    /// The flat index of pair `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range.
    fn pair_index(&self, i: InputPort, j: OutputPort) -> usize {
        assert!(
            i.index() < self.n && j.index() < self.n,
            "pair ({i},{j}) outside switch"
        );
        i.index() * self.n + j.index()
    }

    /// Sets the per-(input, output) cell budget; `None` restores unbounded
    /// buffering. Applies to future pushes only: cells already queued above
    /// a newly lowered budget stay queued and drain normally.
    pub fn set_pair_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// The per-pair cell budget in force (`None` = unbounded).
    pub fn pair_capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether every per-pair occupancy respects the configured capacity.
    ///
    /// Vacuously `true` when unbounded. May legitimately be `false` right
    /// after [`VoqBuffers::set_pair_capacity`] *lowers* the budget below an
    /// existing queue length (those cells stay queued and drain), so the
    /// invariant layer checks it only on runs whose capacity was fixed
    /// before the first push.
    pub fn capacity_invariant_holds(&self) -> bool {
        let Some(cap) = self.capacity else {
            return true;
        };
        self.pair_count.iter().all(|&c| c <= cap)
    }

    /// Cells discarded so far (drop-tail on full VOQs, redirect overflow,
    /// and flows dropped by [`VoqBuffers::drop_flow`]).
    pub fn drops(&self) -> u64 {
        self.drops_total
    }

    /// Cells discarded at input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i.index() >= n`.
    pub fn drops_at_input(&self, i: InputPort) -> u64 {
        assert!(i.index() < self.n, "input {i} outside switch");
        self.drops_per_input[i.index()]
    }

    /// The flow-service discipline in force.
    pub fn discipline(&self) -> ServiceDiscipline {
        self.discipline
    }

    /// The switch radix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total queued cells across all inputs.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Returns `true` if no cell is queued.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Queued cells at input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i.index() >= n`.
    pub fn input_occupancy(&self, i: InputPort) -> usize {
        assert!(i.index() < self.n, "input {i} outside switch");
        self.per_input[i.index()]
    }

    /// Queued cells for the pair `(i, j)` across all its flows. O(1): the
    /// count is maintained incrementally by push/pop (it also backs the
    /// finite-capacity admission check).
    pub fn pair_occupancy(&self, i: InputPort, j: OutputPort) -> usize {
        self.pair_count[self.pair_index(i, j)]
    }

    /// Total queued cells of one flow.
    pub fn flow_occupancy(&self, flow: FlowId) -> usize {
        self.flows
            .find(flow)
            .and_then(|slot| self.flows.get(slot))
            .map_or(0, |f| f.cells.len())
    }

    /// The arrival slot of the pair's head-of-line cell — the oldest cell
    /// that a matching of `(i, j)` would serve next — or `None` when the
    /// pair has nothing queued. Queue-aware schedulers (MWM-OCF) turn
    /// this into a cell age; the oldest head across the pair's eligible
    /// flows is the right notion under both service disciplines, since
    /// Fifo serves exactly that cell and RoundRobin will not serve an
    /// older one (there is none).
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range.
    pub fn pair_head_arrival(&self, i: InputPort, j: OutputPort) -> Option<u64> {
        self.eligible[self.pair_index(i, j)]
            .iter()
            .filter_map(|&slot| self.flows.get(slot)?.cells.front())
            .min_by_key(|&&(seq, _)| seq)
            .map(|&(_, cell)| cell.arrival_slot)
    }

    /// Enqueues an arrived cell, or drops it (drop-tail) if the pair's VOQ
    /// is at its configured capacity.
    ///
    /// A drop rejects the *arriving* cell only: queued cells, flow head
    /// cells, and eligibility lists are untouched, so
    /// [`VoqBuffers::oldest_per_input`] and in-flow FIFO order stay valid
    /// across drops.
    ///
    /// # Panics
    ///
    /// Panics if the cell's ports are out of range, or if its flow was
    /// previously seen with a different output (flows are route-pinned;
    /// reroute via [`VoqBuffers::redirect_flow`]).
    // an2-lint: allow(panic-freedom) the leading asserts are this API's
    // documented "# Panics" contract; every later index is < n * n because
    // they validated both ports, and the slab slot was just interned
    pub fn push(&mut self, cell: Cell) -> PushOutcome {
        let (i, j) = (cell.input, cell.output);
        assert!(
            i.index() < self.n && j.index() < self.n,
            "cell for ({i},{j}) outside switch"
        );
        let p = i.index() * self.n + j.index();
        let slot = self.flows.intern(i.index(), j.index(), cell.flow);
        let flow = self
            .flows
            .get_mut(slot)
            .expect("interned slot is in the slab");
        let pinned = *flow.output.get_or_insert(j);
        assert_eq!(
            pinned, j,
            "flow {} changed output ({} -> {j}); flows are route-pinned",
            cell.flow, pinned
        );
        if let Some(cap) = self.capacity {
            if self.pair_count[p] >= cap {
                self.drops_total = self.drops_total.wrapping_add(1);
                self.drops_per_input[i.index()] =
                    self.drops_per_input[i.index()].wrapping_add(1);
                return PushOutcome::Dropped;
            }
        }
        if flow.cells.is_empty() {
            // Flow becomes eligible for its pair.
            // an2-lint: allow(alloc-in-hot-path) amortized deque growth, bounded by live flows
            self.eligible[p].push_back(slot);
            self.requests.set(i, j);
        }
        // an2-lint: allow(alloc-in-hot-path) amortized deque growth, bounded by queued cells
        flow.cells.push_back((self.next_seq, cell));
        self.next_seq = self.next_seq.wrapping_add(1);
        self.total = self.total.wrapping_add(1);
        self.per_input[i.index()] = self.per_input[i.index()].wrapping_add(1);
        self.pair_count[p] = self.pair_count[p].wrapping_add(1);
        PushOutcome::Admitted
    }

    /// Dequeues the next cell for the pair `(i, j)`, choosing among its
    /// eligible flows per the configured [`ServiceDiscipline`] and
    /// preserving FIFO order within the chosen flow.
    ///
    /// Returns `None` if no flow of the pair has a queued cell.
    ///
    /// # Panics
    ///
    /// Panics if either port index is `>= n`.
    pub fn pop(&mut self, i: InputPort, j: OutputPort) -> Option<Cell> {
        let p = self.pair_index(i, j);
        let list = &mut self.eligible[p];
        let slot = match self.discipline {
            ServiceDiscipline::RoundRobin => list.pop_front()?,
            ServiceDiscipline::Fifo => {
                // Oldest head cell across the pair's flows.
                let flows = &self.flows;
                let pos = (0..list.len()).min_by_key(|&k| {
                    flows
                        .get(list[k])
                        .and_then(|f| f.cells.front())
                        .expect("eligible flow has a queued cell")
                        .0
                })?;
                list.remove(pos)?
            }
        };
        let flow = self
            .flows
            .get_mut(slot)
            .expect("eligible slots are in the slab");
        let (_, cell) = flow
            .cells
            .pop_front()
            .expect("eligible flow has a queued cell");
        if !flow.cells.is_empty() {
            // The flow rejoins at the back (round-robin rotation; harmless
            // under Fifo, which ignores list order).
            list.push_back(slot);
        } else if list.is_empty() {
            // The pair's last eligible flow drained; retract its request.
            self.requests.clear(i, j);
        }
        self.total -= 1;
        self.per_input[i.index()] -= 1;
        self.pair_count[p] -= 1;
        Some(cell)
    }

    /// Removes `slot` from the eligible list of pair `(i, j)`, retracting
    /// the pair's request if the list empties.
    fn retire_eligible(&mut self, i: InputPort, j: OutputPort, slot: u32) {
        let list = &mut self.eligible[i.index() * self.n + j.index()];
        if let Some(pos) = list.iter().position(|&s| s == slot) {
            list.remove(pos);
            if list.is_empty() {
                self.requests.clear(i, j);
            }
        }
    }

    /// Re-pins `flow` to `new_output`, moving its queued cells to the new
    /// pair's VOQ and rewriting their output. Used by network-level
    /// recovery when a link failure reroutes a flow mid-stream.
    ///
    /// If the new pair's VOQ lacks room under the configured capacity, the
    /// flow's *newest* cells are discarded (drop-tail, counted as drops)
    /// until it fits. Returns the number of cells discarded.
    ///
    /// # Panics
    ///
    /// Panics if `new_output.index() >= n`.
    pub fn redirect_flow(&mut self, flow: FlowId, new_output: OutputPort) -> usize {
        assert!(
            new_output.index() < self.n,
            "output {new_output} outside switch"
        );
        let slot = self.flows.slot_or_insert(flow);
        let record = self
            .flows
            .get_mut(slot)
            .expect("interned slot is in the slab");
        // An unknown (or dropped) flow is just pinned so that future cells
        // take the new route.
        let Some(old_output) = record
            .output
            .replace(new_output)
            .filter(|&old| old != new_output)
        else {
            return 0;
        };
        let Some(&(_, head)) = record.cells.front() else {
            return 0;
        };
        let i = head.input;
        let count = record.cells.len();
        let (oi, nj) = (i.index(), new_output.index());
        let room = self.capacity.map_or(usize::MAX, |cap| {
            cap.saturating_sub(self.pair_count[oi * self.n + nj])
        });
        let kept = count.min(room);
        let dropped = count - kept;
        record.cells.truncate(kept);
        for (_, cell) in record.cells.iter_mut() {
            cell.output = new_output;
        }
        self.retire_eligible(i, old_output, slot);
        self.pair_count[oi * self.n + old_output.index()] -= count;
        self.pair_count[oi * self.n + nj] += kept;
        self.total -= dropped;
        self.per_input[oi] -= dropped;
        self.drops_total += dropped as u64;
        self.drops_per_input[oi] += dropped as u64;
        if kept > 0 {
            self.eligible[oi * self.n + nj].push_back(slot);
            self.requests.set(i, new_output);
        }
        dropped
    }

    /// Discards every queued cell of `flow` and forgets its route pin.
    /// Used by network-level recovery for flows stranded by a failure with
    /// no surviving path through this switch. Returns the number of cells
    /// discarded (all counted as drops).
    pub fn drop_flow(&mut self, flow: FlowId) -> usize {
        let Some(slot) = self.flows.find(flow) else {
            return 0;
        };
        let record = self
            .flows
            .get_mut(slot)
            .expect("interned slot is in the slab");
        record.output = None;
        let cells = std::mem::take(&mut record.cells);
        let Some(&(_, head)) = cells.front() else {
            return 0;
        };
        let (i, j) = (head.input, head.output);
        let count = cells.len();
        self.retire_eligible(i, j, slot);
        let ii = i.index();
        self.pair_count[ii * self.n + j.index()] -= count;
        self.total -= count;
        self.per_input[ii] -= count;
        self.drops_total += count as u64;
        self.drops_per_input[ii] += count as u64;
        count
    }

    /// The request matrix for the next slot: pair `(i, j)` requests iff it
    /// has at least one eligible flow. Maintained incrementally by
    /// `push`/`pop`, so this is a borrow, not a rebuild.
    pub fn requests(&self) -> &RequestMatrix {
        &self.requests
    }

    /// Fills an internal buffer (one entry per input) with each input's
    /// *oldest* queued cell — what a FIFO switch would expose — and returns
    /// it. Provided for comparison tooling; the FIFO model keeps its own
    /// simpler buffers. The returned slice borrows scratch storage reused
    /// across calls.
    pub fn oldest_per_input(&mut self) -> &[Option<Cell>] {
        self.heads.clear();
        self.heads.resize(self.n, None);
        self.head_seqs.clear();
        self.head_seqs.resize(self.n, u64::MAX);
        for (_, flow) in self.flows.iter() {
            if let Some(&(seq, cell)) = flow.cells.front() {
                let idx = cell.input.index();
                if seq < self.head_seqs[idx] {
                    self.head_seqs[idx] = seq;
                    self.heads[idx] = Some(cell);
                }
            }
        }
        &self.heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Arrival;

    fn cell(n: usize, i: usize, j: usize, slot: u64) -> Cell {
        Arrival::pair(n, InputPort::new(i), OutputPort::new(j)).into_cell(slot)
    }

    fn flow_cell(flow: u64, i: usize, j: usize, slot: u64) -> Cell {
        Cell {
            flow: FlowId(flow),
            input: InputPort::new(i),
            output: OutputPort::new(j),
            arrival_slot: slot,
        }
    }

    fn push_ok(voq: &mut VoqBuffers, cell: Cell) {
        assert_eq!(voq.push(cell), PushOutcome::Admitted);
    }

    #[test]
    fn fifo_within_flow() {
        let mut voq = VoqBuffers::new(4);
        for s in 0..5 {
            push_ok(&mut voq, cell(4, 1, 2, s));
        }
        for s in 0..5 {
            let c = voq.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
            assert_eq!(c.arrival_slot, s);
        }
        assert!(voq.pop(InputPort::new(1), OutputPort::new(2)).is_none());
    }

    #[test]
    fn round_robin_between_flows_of_a_pair() {
        let mut voq = VoqBuffers::new(4);
        // Two flows on pair (0, 1), three cells each.
        for s in 0..3 {
            push_ok(&mut voq, flow_cell(100, 0, 1, s));
            push_ok(&mut voq, flow_cell(200, 0, 1, s));
        }
        let order: Vec<u64> = (0..6)
            .map(|_| {
                voq.pop(InputPort::new(0), OutputPort::new(1))
                    .unwrap()
                    .flow
                    .0
            })
            .collect();
        assert_eq!(order, vec![100, 200, 100, 200, 100, 200]);
    }

    #[test]
    fn requests_reflect_eligibility() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, cell(4, 0, 3, 0));
        push_ok(&mut voq, cell(4, 2, 1, 0));
        let reqs = voq.requests();
        assert_eq!(reqs.len(), 2);
        assert!(reqs.has(InputPort::new(0), OutputPort::new(3)));
        assert!(reqs.has(InputPort::new(2), OutputPort::new(1)));
        voq.pop(InputPort::new(0), OutputPort::new(3)).unwrap();
        assert_eq!(voq.requests().len(), 1);
    }

    #[test]
    fn occupancy_accounting() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, cell(4, 0, 1, 0));
        push_ok(&mut voq, cell(4, 0, 2, 1));
        push_ok(&mut voq, cell(4, 3, 1, 1));
        assert_eq!(voq.len(), 3);
        assert_eq!(voq.input_occupancy(InputPort::new(0)), 2);
        assert_eq!(voq.pair_occupancy(InputPort::new(0), OutputPort::new(2)), 1);
        voq.pop(InputPort::new(0), OutputPort::new(1)).unwrap();
        assert_eq!(voq.len(), 2);
        assert_eq!(voq.input_occupancy(InputPort::new(0)), 1);
        assert!(!voq.is_empty());
    }

    #[test]
    fn oldest_per_input_finds_earliest_queued() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, cell(4, 0, 3, 5)); // queued first
        push_ok(&mut voq, cell(4, 0, 1, 7)); // different VOQ, queued later
        let heads = voq.oldest_per_input();
        assert_eq!(heads[0].unwrap().arrival_slot, 5);
        assert!(heads[1].is_none());
    }

    #[test]
    fn fifo_discipline_serves_across_flows_in_arrival_order() {
        let mut voq = VoqBuffers::with_discipline(4, ServiceDiscipline::Fifo);
        assert_eq!(voq.discipline(), ServiceDiscipline::Fifo);
        // Flow 100 queues two cells, then flow 200 queues two, all on the
        // same pair: FIFO service yields 100,100,200,200 (round-robin
        // would interleave).
        for s in 0..2 {
            push_ok(&mut voq, flow_cell(100, 0, 1, s));
        }
        for s in 2..4 {
            push_ok(&mut voq, flow_cell(200, 0, 1, s));
        }
        let order: Vec<u64> = (0..4)
            .map(|_| {
                voq.pop(InputPort::new(0), OutputPort::new(1))
                    .unwrap()
                    .flow
                    .0
            })
            .collect();
        assert_eq!(order, vec![100, 100, 200, 200]);
        assert_eq!(voq.flow_occupancy(FlowId(100)), 0);
    }

    #[test]
    #[should_panic(expected = "route-pinned")]
    fn flow_changing_output_panics() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, flow_cell(7, 0, 1, 0));
        push_ok(&mut voq, flow_cell(7, 0, 2, 1));
    }

    #[test]
    fn empty_pair_pop_is_none() {
        let mut voq = VoqBuffers::new(2);
        assert!(voq.pop(InputPort::new(0), OutputPort::new(0)).is_none());
    }

    #[test]
    fn finite_capacity_drops_tail_and_counts() {
        let mut voq = VoqBuffers::new(4);
        voq.set_pair_capacity(Some(2));
        assert_eq!(voq.pair_capacity(), Some(2));
        push_ok(&mut voq, cell(4, 1, 2, 0));
        push_ok(&mut voq, cell(4, 1, 2, 1));
        assert_eq!(voq.push(cell(4, 1, 2, 2)), PushOutcome::Dropped);
        assert_eq!(voq.len(), 2);
        assert_eq!(voq.drops(), 1);
        assert_eq!(voq.drops_at_input(InputPort::new(1)), 1);
        assert_eq!(voq.drops_at_input(InputPort::new(0)), 0);
        // The queued cells are the two oldest: drop-tail rejected the
        // newest arrival, preserving in-flow FIFO order.
        let a = voq.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
        let b = voq.pop(InputPort::new(1), OutputPort::new(2)).unwrap();
        assert_eq!((a.arrival_slot, b.arrival_slot), (0, 1));
        // Draining frees capacity for new arrivals.
        push_ok(&mut voq, cell(4, 1, 2, 9));
    }

    #[test]
    fn capacity_is_per_pair_not_global() {
        let mut voq = VoqBuffers::new(4);
        voq.set_pair_capacity(Some(1));
        push_ok(&mut voq, cell(4, 0, 1, 0));
        // A different pair of the same input still has room.
        push_ok(&mut voq, cell(4, 0, 2, 0));
        assert_eq!(voq.push(cell(4, 0, 1, 1)), PushOutcome::Dropped);
    }

    #[test]
    fn oldest_per_input_stays_valid_after_drops() {
        let mut voq = VoqBuffers::new(4);
        voq.set_pair_capacity(Some(1));
        push_ok(&mut voq, cell(4, 0, 3, 5));
        assert_eq!(voq.push(cell(4, 0, 3, 6)), PushOutcome::Dropped);
        let heads = voq.oldest_per_input();
        // The dropped arrival never entered a queue; the head is untouched.
        assert_eq!(heads[0].unwrap().arrival_slot, 5);
    }

    #[test]
    fn redirect_flow_moves_cells_and_requests() {
        let mut voq = VoqBuffers::new(4);
        for s in 0..3 {
            push_ok(&mut voq, flow_cell(9, 0, 1, s));
        }
        let dropped = voq.redirect_flow(FlowId(9), OutputPort::new(3));
        assert_eq!(dropped, 0);
        assert_eq!(voq.pair_occupancy(InputPort::new(0), OutputPort::new(1)), 0);
        assert_eq!(voq.pair_occupancy(InputPort::new(0), OutputPort::new(3)), 3);
        assert!(!voq.requests().has(InputPort::new(0), OutputPort::new(1)));
        assert!(voq.requests().has(InputPort::new(0), OutputPort::new(3)));
        // Cells come out of the new pair, rewritten and in order.
        for s in 0..3 {
            let c = voq.pop(InputPort::new(0), OutputPort::new(3)).unwrap();
            assert_eq!(c.arrival_slot, s);
            assert_eq!(c.output, OutputPort::new(3));
        }
        // The pin moved: pushing on the new route is accepted...
        push_ok(&mut voq, flow_cell(9, 0, 3, 9));
    }

    #[test]
    #[should_panic(expected = "route-pinned")]
    fn redirect_flow_repins_old_route_rejected() {
        let mut voq = VoqBuffers::new(4);
        push_ok(&mut voq, flow_cell(9, 0, 1, 0));
        let _ = voq.redirect_flow(FlowId(9), OutputPort::new(3));
        let _ = voq.push(flow_cell(9, 0, 1, 1)); // old route now violates the pin
    }

    #[test]
    fn redirect_flow_respects_destination_capacity() {
        let mut voq = VoqBuffers::new(4);
        voq.set_pair_capacity(Some(2));
        // Fill pair (0,3) with another flow's cell; flow 9 holds 2 on (0,1).
        push_ok(&mut voq, flow_cell(5, 0, 3, 0));
        push_ok(&mut voq, flow_cell(9, 0, 1, 1));
        push_ok(&mut voq, flow_cell(9, 0, 1, 2));
        let dropped = voq.redirect_flow(FlowId(9), OutputPort::new(3));
        // Only one slot of room: the newest cell is discarded.
        assert_eq!(dropped, 1);
        assert_eq!(voq.drops(), 1);
        assert_eq!(voq.pair_occupancy(InputPort::new(0), OutputPort::new(3)), 2);
        assert_eq!(voq.len(), 2);
        let kept: Vec<u64> = (0..2)
            .map(|_| {
                voq.pop(InputPort::new(0), OutputPort::new(3))
                    .unwrap()
                    .arrival_slot
            })
            .collect();
        assert!(kept.contains(&1), "oldest redirected cell kept: {kept:?}");
    }

    #[test]
    fn drop_flow_discards_and_unpins() {
        let mut voq = VoqBuffers::new(4);
        for s in 0..4 {
            push_ok(&mut voq, flow_cell(7, 2, 1, s));
        }
        assert_eq!(voq.drop_flow(FlowId(7)), 4);
        assert!(voq.is_empty());
        assert_eq!(voq.drops(), 4);
        assert_eq!(voq.drops_at_input(InputPort::new(2)), 4);
        assert!(!voq.requests().has(InputPort::new(2), OutputPort::new(1)));
        assert!(voq.pop(InputPort::new(2), OutputPort::new(1)).is_none());
        // The pin is forgotten: the flow may reappear on a different route.
        push_ok(&mut voq, flow_cell(7, 2, 3, 9));
        // Dropping an unknown flow is a no-op.
        assert_eq!(voq.drop_flow(FlowId(999)), 0);
    }
}
