//! Spans and counters recorded from the benchmark side of the layer
//! boundaries.
//!
//! The engines call their scheduler through the [`Scheduler`] trait, so the
//! benchmark injects [`Traced`]: a wrapper that forwards every trait method
//! to the real scheduler and times the two calls that belong to other
//! layers — `schedule` (the scheduler) and the `observe_queue` walk that
//! precedes it (the queue-observation feed). Nothing inside the library
//! crates is instrumented; the spans sit exactly on the public calls.
//!
//! Spans are aggregated in memory as they close (sum of durations plus
//! counts) instead of being kept one record per span: a run closes
//! millions of them.

use an2_sched::{InputPort, MatchingN, OutputPort, PortMaskN, RequestMatrixN, Scheduler};
use std::time::{Duration, Instant};

/// Nanoseconds in `d`, saturating at `u64::MAX`.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Cumulative scheduler-boundary counters and span sums recorded by
/// [`Traced`]. Take a copy before and after a window and subtract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Probe {
    /// `schedule` calls.
    pub calls: u64,
    /// Pairs in the returned matchings (after illegal pairs are removed).
    pub matches: u64,
    /// Inputs with at least one request, summed over calls.
    pub requesting_inputs: u64,
    /// `observe_queue` calls.
    pub observations: u64,
    /// Matched pairs that had no request behind them.
    pub violations: u64,
    /// Time inside the wrapped `schedule`.
    pub sched_ns: u64,
    /// Time from a slot's first `observe_queue` call to its `schedule` call.
    pub feed_ns: u64,
    /// Time the wrapper itself spends counting and checking after
    /// `schedule` returns, subtracted from engine self time.
    pub probe_ns: u64,
}

impl Probe {
    /// The counts and span sums accumulated since `earlier`.
    pub fn since(&self, earlier: &Probe) -> Probe {
        Probe {
            calls: self.calls - earlier.calls,
            matches: self.matches - earlier.matches,
            requesting_inputs: self.requesting_inputs - earlier.requesting_inputs,
            observations: self.observations - earlier.observations,
            violations: self.violations - earlier.violations,
            sched_ns: self.sched_ns - earlier.sched_ns,
            feed_ns: self.feed_ns - earlier.feed_ns,
            probe_ns: self.probe_ns - earlier.probe_ns,
        }
    }
}

/// A scheduler that can report a [`Probe`]: `Some` for [`Traced`], `None`
/// for a bare scheduler.
pub trait Probed {
    /// The probe's cumulative counters, if this scheduler is traced.
    fn probe(&self) -> Option<Probe> {
        None
    }
}

impl<R: an2_sched::rng::SelectRng, const W: usize> Probed for an2_sched::PimN<R, W> {}
impl<const W: usize> Probed for an2_sched::MwmN<W> {}

/// The timing wrapper the benchmark injects between an engine and its
/// scheduler.
///
/// Every [`Scheduler`] method is forwarded, including the defaulted ones:
/// dropping `idle_slot_is_noop` would add idle `schedule` calls in the
/// batch engine, and dropping `wants_queue_observations` would run a
/// queue-aware scheduler unweighted. Either would change the simulated
/// run, which the traced-versus-untraced digest comparison catches.
///
/// Every returned matching is checked with [`MatchingN::respects`]. Pairs
/// without a request are counted as violations and removed, so the run
/// finishes and reports them as failed operations.
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    probe: Probe,
    feed_start: Option<Instant>,
}

impl<S> Traced<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            probe: Probe::default(),
            feed_start: None,
        }
    }
}

impl<S> Probed for Traced<S> {
    fn probe(&self) -> Option<Probe> {
        Some(self.probe)
    }
}

impl<const W: usize, S: Scheduler<W>> Scheduler<W> for Traced<S> {
    fn schedule(&mut self, requests: &RequestMatrixN<W>) -> MatchingN<W> {
        let t0 = Instant::now();
        if let Some(start) = self.feed_start.take() {
            self.probe.feed_ns += nanos(t0 - start);
        }
        let matching = self.inner.schedule(requests);
        let t1 = Instant::now();
        let p = &mut self.probe;
        p.sched_ns += nanos(t1 - t0);
        p.calls += 1;
        p.requesting_inputs += requests.nonempty_rows().len() as u64;
        let matching = if matching.respects(requests) {
            matching
        } else {
            let mut legal = MatchingN::new(requests.n());
            for (i, j) in matching.pairs() {
                if requests.has(i, j) && legal.pair(i, j).is_ok() {
                    continue;
                }
                p.violations += 1;
            }
            legal
        };
        p.matches += matching.len() as u64;
        p.probe_ns += nanos(t1.elapsed());
        matching
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_port_mask(&mut self, mask: PortMaskN<W>) {
        self.inner.set_port_mask(mask);
    }

    fn idle_slot_is_noop(&self) -> bool {
        self.inner.idle_slot_is_noop()
    }

    fn wants_queue_observations(&self) -> bool {
        self.inner.wants_queue_observations()
    }

    fn observe_queue(&mut self, i: InputPort, j: OutputPort, depth: u32, age: u32) {
        if self.feed_start.is_none() {
            self.feed_start = Some(Instant::now());
        }
        self.probe.observations += 1;
        self.inner.observe_queue(i, j, depth, age);
    }
}

/// Per-slot durations, kept raw (first `cap` samples) so percentiles are
/// exact rather than bucketed.
#[derive(Debug)]
pub struct Samples {
    ns: Vec<u32>,
    cap: usize,
}

impl Samples {
    /// An empty sample set that keeps at most `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ns: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Records one duration (dropped once `cap` samples are held).
    pub fn record(&mut self, ns: u64) {
        if self.ns.len() < self.cap {
            self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }

    /// The `p`-quantile (nearest rank) of the recorded samples, 0 if none.
    pub fn quantile(&mut self, p: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let rank = ((self.ns.len() as f64 * p).ceil() as usize).clamp(1, self.ns.len());
        let (_, v, _) = self.ns.select_nth_unstable(rank - 1);
        f64::from(*v)
    }
}

/// Median of `values` (mean of the middle two for an even count), 0 if
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
