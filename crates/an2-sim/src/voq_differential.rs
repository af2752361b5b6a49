//! Differential test: the slab-backed [`VoqBuffers`] against a hash-map
//! reference.
//!
//! The reference keeps the layout the buffers had before the flow slab:
//! one map from flow to FIFO, one map from flow to its pinned output, and
//! per-pair lists of eligible flow ids. Departures are counted per flow in
//! a map, as the switch metrics once did. Random sequences of pushes, pops,
//! reroutes, flow drops, capacity changes and measurement restarts drive
//! both sides in lockstep, with several flows per pair and both service
//! disciplines, and every observable must agree after every step.
//!
//! The benchmark workloads run one flow per pair; this test is what covers
//! the many-flow paths (Figure 9, statistical-matching fairness) and the
//! network simulator's reroutes.

use crate::cell::{Cell, FlowId};
use crate::core::QueueStore;
use crate::voq::{PushOutcome, ServiceDiscipline, VoqBuffers};
use an2_sched::det::DetHashMap;
use an2_sched::{InputPort, OutputPort, RequestMatrix};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The map-backed buffers, reduced to what the comparison reads.
struct MapVoq {
    n: usize,
    discipline: ServiceDiscipline,
    next_seq: u64,
    flows: DetHashMap<FlowId, VecDeque<(u64, Cell)>>,
    flow_output: DetHashMap<FlowId, OutputPort>,
    eligible: Vec<Vec<VecDeque<FlowId>>>,
    total: usize,
    per_input: Vec<usize>,
    requests: RequestMatrix,
    capacity: Option<usize>,
    pair_count: Vec<Vec<usize>>,
    drops_total: u64,
    drops_per_input: Vec<u64>,
}

// Test-only like the whole module; marked again because the hot-path
// lint reads each file on its own and would take `push` for the real one.
#[cfg(test)]
impl MapVoq {
    fn new(n: usize, discipline: ServiceDiscipline) -> Self {
        Self {
            n,
            discipline,
            next_seq: 0,
            flows: DetHashMap::default(),
            flow_output: DetHashMap::default(),
            eligible: vec![vec![VecDeque::new(); n]; n],
            total: 0,
            per_input: vec![0; n],
            requests: RequestMatrix::new(n),
            capacity: None,
            pair_count: vec![vec![0; n]; n],
            drops_total: 0,
            drops_per_input: vec![0; n],
        }
    }

    fn push(&mut self, cell: Cell) -> PushOutcome {
        let (i, j) = (cell.input, cell.output);
        let pinned = self.flow_output.entry(cell.flow).or_insert(j);
        assert_eq!(*pinned, j, "generator broke a route pin");
        if let Some(cap) = self.capacity {
            if self.pair_count[i.index()][j.index()] >= cap {
                self.drops_total += 1;
                self.drops_per_input[i.index()] += 1;
                return PushOutcome::Dropped;
            }
        }
        let q = self.flows.entry(cell.flow).or_default();
        if q.is_empty() {
            self.eligible[i.index()][j.index()].push_back(cell.flow);
            self.requests.set(i, j);
        }
        q.push_back((self.next_seq, cell));
        self.next_seq += 1;
        self.total += 1;
        self.per_input[i.index()] += 1;
        self.pair_count[i.index()][j.index()] += 1;
        PushOutcome::Admitted
    }

    fn pop(&mut self, i: InputPort, j: OutputPort) -> Option<Cell> {
        let list = &mut self.eligible[i.index()][j.index()];
        let pos = match self.discipline {
            ServiceDiscipline::RoundRobin => 0,
            ServiceDiscipline::Fifo => {
                (0..list.len()).min_by_key(|&k| self.flows[&list[k]].front().unwrap().0)?
            }
        };
        let flow = *list.get(pos)?;
        list.remove(pos);
        let q = self.flows.get_mut(&flow).unwrap();
        let (_, cell) = q.pop_front().unwrap();
        if !q.is_empty() {
            list.push_back(flow);
        } else if list.is_empty() {
            self.requests.clear(i, j);
        }
        self.total -= 1;
        self.per_input[i.index()] -= 1;
        self.pair_count[i.index()][j.index()] -= 1;
        Some(cell)
    }

    fn redirect_flow(&mut self, flow: FlowId, new_output: OutputPort) -> usize {
        let Some(&old_output) = self.flow_output.get(&flow) else {
            self.flow_output.insert(flow, new_output);
            return 0;
        };
        if old_output == new_output {
            return 0;
        }
        self.flow_output.insert(flow, new_output);
        let Some(q) = self.flows.get_mut(&flow) else {
            return 0;
        };
        if q.is_empty() {
            return 0;
        }
        let i = q.front().unwrap().1.input;
        let count = q.len();
        let (oi, oj) = (i.index(), old_output.index());
        let list = &mut self.eligible[oi][oj];
        if let Some(pos) = list.iter().position(|f| *f == flow) {
            list.remove(pos);
            if list.is_empty() {
                self.requests.clear(i, old_output);
            }
        }
        self.pair_count[oi][oj] -= count;
        let nj = new_output.index();
        let room = self.capacity.map_or(usize::MAX, |cap| {
            cap.saturating_sub(self.pair_count[oi][nj])
        });
        let kept = count.min(room);
        let dropped = count - kept;
        q.truncate(kept);
        for (_, cell) in q.iter_mut() {
            cell.output = new_output;
        }
        self.pair_count[oi][nj] += kept;
        self.total -= dropped;
        self.per_input[oi] -= dropped;
        self.drops_total += dropped as u64;
        self.drops_per_input[oi] += dropped as u64;
        if kept > 0 {
            self.eligible[oi][nj].push_back(flow);
            self.requests.set(i, new_output);
        }
        dropped
    }

    fn drop_flow(&mut self, flow: FlowId) -> usize {
        let count = match self.flows.remove(&flow) {
            Some(q) if !q.is_empty() => {
                let head = q.front().unwrap().1;
                let (i, j) = (head.input, head.output);
                let count = q.len();
                let list = &mut self.eligible[i.index()][j.index()];
                if let Some(pos) = list.iter().position(|f| *f == flow) {
                    list.remove(pos);
                    if list.is_empty() {
                        self.requests.clear(i, j);
                    }
                }
                self.pair_count[i.index()][j.index()] -= count;
                self.total -= count;
                self.per_input[i.index()] -= count;
                self.drops_total += count as u64;
                self.drops_per_input[i.index()] += count as u64;
                count
            }
            _ => 0,
        };
        self.flow_output.remove(&flow);
        count
    }

    fn pair_head_arrival(&self, i: InputPort, j: OutputPort) -> Option<u64> {
        self.eligible[i.index()][j.index()]
            .iter()
            .filter_map(|flow| self.flows[flow].front())
            .min_by_key(|&&(seq, _)| seq)
            .map(|&(_, cell)| cell.arrival_slot)
    }

    fn flow_occupancy(&self, flow: FlowId) -> usize {
        self.flows.get(&flow).map_or(0, VecDeque::len)
    }

    fn oldest_per_input(&self) -> Vec<Option<Cell>> {
        let mut heads = vec![None; self.n];
        let mut seqs = vec![u64::MAX; self.n];
        for q in self.flows.values() {
            if let Some(&(seq, cell)) = q.front() {
                let idx = cell.input.index();
                if seq < seqs[idx] {
                    seqs[idx] = seq;
                    heads[idx] = Some(cell);
                }
            }
        }
        heads
    }
}

/// Flow ids the generator draws from; flow `f` always enters at input
/// `f % n`, so a radix-3 switch sees three or four flows per input spread
/// over its outputs, several sharing a pair.
const FLOWS: u64 = 10;

/// Asserts that every observable of the two buffers agrees.
fn assert_same(slab: &mut VoqBuffers, map: &MapVoq, step: usize) {
    let n = map.n;
    assert_eq!(slab.len(), map.total, "len at step {step}");
    assert_eq!(slab.drops(), map.drops_total, "drops at step {step}");
    let slab_requests: Vec<_> = slab.requests().pairs().collect();
    let map_requests: Vec<_> = map.requests.pairs().collect();
    assert_eq!(slab_requests, map_requests, "requests at step {step}");
    for i in 0..n {
        let ip = InputPort::new(i);
        assert_eq!(
            slab.input_occupancy(ip),
            map.per_input[i],
            "input {i} at step {step}"
        );
        assert_eq!(
            slab.drops_at_input(ip),
            map.drops_per_input[i],
            "drops at step {step}"
        );
        for j in 0..n {
            let jp = OutputPort::new(j);
            assert_eq!(
                slab.pair_occupancy(ip, jp),
                map.pair_count[i][j],
                "pair ({i},{j}) occupancy at step {step}"
            );
            assert_eq!(
                slab.pair_head_arrival(ip, jp),
                map.pair_head_arrival(ip, jp),
                "pair ({i},{j}) head at step {step}"
            );
        }
    }
    for f in 0..FLOWS + 1 {
        assert_eq!(
            slab.flow_occupancy(FlowId(f)),
            map.flow_occupancy(FlowId(f)),
            "flow {f} occupancy at step {step}"
        );
    }
    assert_eq!(
        slab.oldest_per_input().to_vec(),
        map.oldest_per_input(),
        "oldest per input at step {step}"
    );
}

/// Departures per flow, sorted, as the map-backed metrics reported them.
fn sorted_counts(counts: &DetHashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = counts.iter().map(|(&f, &c)| (f, c)).collect();
    v.sort_unstable();
    v
}

/// Replays one random operation sequence on both sides.
fn run(n: usize, discipline: ServiceDiscipline, ops: &[(u8, u64)]) {
    let mut slab = VoqBuffers::with_discipline(n, discipline);
    let mut map = MapVoq::new(n, discipline);
    let mut departures: DetHashMap<u64, u64> = DetHashMap::default();
    for (step, &(op, r)) in ops.iter().enumerate() {
        let slot = step as u64;
        match op {
            // Pushes are the most common operation, so queues build up.
            0..=3 => {
                let flow = FlowId(r % FLOWS);
                let output = map
                    .flow_output
                    .get(&flow)
                    .copied()
                    .unwrap_or(OutputPort::new((r >> 8) as usize % n));
                let cell = Cell {
                    flow,
                    input: InputPort::new(flow.0 as usize % n),
                    output,
                    arrival_slot: slot,
                };
                assert_eq!(slab.push(cell), map.push(cell), "push at step {step}");
            }
            // Pops serve a requested pair when there is one.
            4..=6 => {
                let pairs: Vec<_> = map.requests.pairs().collect();
                let (i, j) = if pairs.is_empty() {
                    (
                        InputPort::new(r as usize % n),
                        OutputPort::new((r >> 8) as usize % n),
                    )
                } else {
                    pairs[r as usize % pairs.len()]
                };
                let cell = slab.pop(i, j);
                assert_eq!(cell, map.pop(i, j), "pop ({i},{j}) at step {step}");
                if let Some(cell) = cell {
                    *departures.entry(cell.flow.0).or_insert(0) += 1;
                }
            }
            7 => {
                let flow = FlowId(r % (FLOWS + 1));
                let output = OutputPort::new((r >> 8) as usize % n);
                assert_eq!(
                    slab.redirect_flow(flow, output),
                    map.redirect_flow(flow, output),
                    "redirect at step {step}"
                );
            }
            8 => {
                let flow = FlowId(r % (FLOWS + 1));
                assert_eq!(
                    slab.drop_flow(flow),
                    map.drop_flow(flow),
                    "drop at step {step}"
                );
            }
            9 => {
                let capacity = match r % 4 {
                    0 => None,
                    k => Some(k as usize),
                };
                slab.set_pair_capacity(capacity);
                map.capacity = capacity;
            }
            _ => {
                assert_eq!(
                    slab.flow_departures(),
                    sorted_counts(&departures),
                    "departures per flow before restart at step {step}"
                );
                slab.restart_window();
                departures.clear();
            }
        }
        assert_same(&mut slab, &map, step);
    }
    assert_eq!(
        slab.flow_departures(),
        sorted_counts(&departures),
        "departures per flow at the end"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slab_buffers_match_the_map_reference(
        n in 1usize..5,
        fifo in any::<bool>(),
        ops in proptest::collection::vec((0u8..11, any::<u64>()), 0..400),
    ) {
        let discipline = if fifo {
            ServiceDiscipline::Fifo
        } else {
            ServiceDiscipline::RoundRobin
        };
        run(n, discipline, &ops);
    }
}
