//! The repository benchmark for the AN2 reproduction.
//!
//! Four workloads drive the public engine APIs from one process:
//!
//! | workload   | engine                      | scheduler        | traffic                         |
//! |------------|-----------------------------|------------------|---------------------------------|
//! | `pim16`    | `CrossbarSwitch`, N=16      | `Pim`, 4 iter.   | `RateMatrixTraffic::uniform` 0.9 |
//! | `wide1024` | `BatchCrossbar<_, 16>`, N=1024 | `WidePim`     | `SparseUniformTraffic` 0.25     |
//! | `mwm16`    | `CrossbarSwitch`, N=16      | `Mwm::lqf`       | `RateMatrixTraffic::uniform` 0.95 |
//! | `ring1000` | `run_shard_net`, 1000 switches, 2 threads | PIM (internal) | ring host traffic      |
//!
//! A switch workload warms up, then runs a fixed simulated window whose
//! report gives the simulated metrics (identical for a given seed however
//! fast the host is), and keeps stepping in fixed-size chunks until the
//! requested host time has passed. Throughput is the slots of every chunk
//! over their total time, scaled to a nominal host speed measured by
//! sampling a fixed kernel between chunks (see `host.rs`).
//!
//! An untraced run uses the bare scheduler. A traced run steps a second,
//! identically seeded engine whose scheduler is wrapped in
//! [`trace::Traced`], interleaving chunks of the two, and records spans
//! around the calls into each layer. Both engines must produce the same
//! simulated digest and counts.

mod host;
mod trace;

use an2_net::shard::{run_shard_net, ShardNetConfig, ShardReport};
use an2_sched::{Mwm, Pim, Scheduler, WidePim};
use an2_sim::batch::BatchCrossbar;
use an2_sim::switch::CrossbarSwitch;
use an2_sim::traffic::{RateMatrixTraffic, SparseUniformTraffic, Traffic};
use an2_sim::units::LinkRate;
use an2_sim::{Arrival, SwitchModel, SwitchReport};
use an2_task::{fnv1a, task_seed, Pool};
use host::HostSpeed;
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::{median, nanos, Probe, Probed, Samples, Traced};

/// The workload seed used when none is given, and the one the pinned
/// digests in the tests refer to.
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads for the `ring1000` network run.
const RING_THREADS: usize = 2;

/// Network slots per `ring1000` run.
const RING_SLOTS: u64 = 2_000;

/// Host-speed samples after each `ring1000` run.
const RING_HOST_SAMPLES: usize = 4;

/// Set-up is repeated at least this often; the median is reported.
const SETUP_MIN_REPS: usize = 5;
/// Set-up reps kept for the median.
const SETUP_MAX_REPS: usize = 20_000;
/// Share of the measured time spent on set-up reps, spread over the run.
const SETUP_SHARE: u32 = 20;
/// Set-up reps run back to back until a batch takes this long.
const SETUP_BATCH: Duration = Duration::from_millis(1);

/// Per-slot step durations kept for the traced percentiles.
const SLOT_SAMPLE_CAP: usize = 2_000_000;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's operating point: 16-port scalar switch, PIM, load 0.9.
    Pim16,
    /// The batched wide-radix engine: N=1024, wide PIM, load 0.25.
    Wide1024,
    /// Queue-aware exact MWM (LQF) on the scalar switch, load 0.95.
    Mwm16,
    /// The sharded 1000-switch ring network on a 2-thread pool.
    Ring1000,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Pim16,
        Workload::Wide1024,
        Workload::Mwm16,
        Workload::Ring1000,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pim16 => "pim16",
            Workload::Wide1024 => "wide1024",
            Workload::Mwm16 => "mwm16",
            Workload::Ring1000 => "ring1000",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed simulated extent of a switch workload, in slots. `slots` is a
/// multiple of `chunk`, so the window closes on a chunk boundary.
#[derive(Clone, Copy, Debug)]
struct Window {
    warmup: u64,
    slots: u64,
    chunk: u64,
}

const PIM16_WINDOW: Window = Window {
    warmup: 20_000,
    slots: 200_000,
    chunk: 25_000,
};
const WIDE1024_WINDOW: Window = Window {
    warmup: 2_000,
    slots: 30_000,
    chunk: 3_000,
};
const MWM16_WINDOW: Window = Window {
    warmup: 10_000,
    slots: 150_000,
    chunk: 5_000,
};

/// How to run one workload.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed; every engine, scheduler and traffic seed derives from
    /// it through `task_seed`.
    pub seed: u64,
    /// Host time to keep measuring for. The fixed simulated window always
    /// completes, so 0 runs exactly the window.
    pub seconds: f64,
    /// Run the traced comparison and report per-layer metrics instead of
    /// the end-to-end ones.
    pub trace: bool,
}

/// The end-to-end metrics, with their units, in report order.
const END_TO_END: [(&str, &str); 6] = [
    ("slots_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cell_delay_mean_slots", "slots"),
    ("cell_delay_p99_slots", "slots"),
    ("delivered_per_slot", "cells/slot"),
];

/// The per-layer metrics, with their units, in report order.
const LAYERS: [(&str, &str); 20] = [
    ("traffic.ns_per_slot", "ns"),
    ("traffic.arrivals_per_slot", "count"),
    ("sched.ns_per_call", "ns"),
    ("sched.cell_time_ratio", "ratio"),
    ("sched.calls_per_slot", "count"),
    ("sched.matches_per_call", "count"),
    ("sched.served_input_ratio", "ratio"),
    ("feed.ns_per_slot", "ns"),
    ("feed.observations_per_slot", "count"),
    ("engine.self_ns_per_slot", "ns"),
    ("engine.slot_ns_p50", "ns"),
    ("engine.slot_ns_p99", "ns"),
    ("engine.queued_mean", "count"),
    ("engine.active_pairs_mean", "count"),
    ("net.serial_s", "s"),
    ("net.parallel_speedup", "ratio"),
    ("net.in_flight_end", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.slot_ns", "ns"),
    ("trace.accounted_ratio", "ratio"),
];

/// Every metric of `spec` with its measured value; a metric a workload
/// does not measure (a layer it never reaches) reads 0.
fn metrics(spec: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    debug_assert!(
        values.iter().all(|(v, _)| spec.iter().any(|(s, _)| s == v)),
        "a measured value names no metric"
    );
    spec.iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values
                .iter()
                .find(|(v, _)| *v == name)
                .map_or(0.0, |&(_, x)| x),
            unit,
        })
        .collect()
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Deterministic counts over a workload's fixed simulated window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Slots in the window (network slots for `ring1000`).
    pub slots: u64,
    /// Cells offered in the window.
    pub arrivals: u64,
    /// Cells delivered in the window.
    pub departures: u64,
    /// `schedule` calls: counted by the wrapper when traced, derived from
    /// the engine's idle-slot rule when not.
    pub sched_calls: u64,
    /// Buffered cells after each slot, summed.
    pub queued_sum: u64,
    /// Active input–output pairs after each slot, summed.
    pub active_pairs_sum: u64,
    /// Cells still in the network at the end (`ring1000` only).
    pub in_flight_end: u64,
}

/// The result of one workload run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Cells offered during the measured runs.
    pub attempted: u64,
    /// Cells (or matched pairs) a correctness check found wrong.
    pub failed: u64,
    /// What each failed check found.
    pub failures: Vec<String>,
    /// Digest of the fixed window's simulated result.
    pub digest: u64,
    /// Counts over the fixed window.
    pub counts: Counts,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Unscaled throughput and the host reference rate, for the log.
    pub note: String,
}

impl Outcome {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Runs `workload` as configured.
pub fn run(workload: Workload, cfg: &RunConfig) -> Outcome {
    let seed = cfg.seed;
    match workload {
        Workload::Pim16 => run_switch(
            workload,
            PIM16_WINDOW,
            cfg,
            || pim16_parts(seed, |s| CrossbarSwitch::with_ports(16, s)),
            || pim16_parts(seed, |s| CrossbarSwitch::with_ports(16, Traced::new(s))),
        ),
        Workload::Wide1024 => run_switch(
            workload,
            WIDE1024_WINDOW,
            cfg,
            || wide1024_parts(seed, |s| BatchCrossbar::<_, 16>::new(1024, s)),
            || wide1024_parts(seed, |s| BatchCrossbar::<_, 16>::new(1024, Traced::new(s))),
        ),
        Workload::Mwm16 => run_switch(
            workload,
            MWM16_WINDOW,
            cfg,
            || mwm16_parts(seed, |s| CrossbarSwitch::with_ports(16, s)),
            || mwm16_parts(seed, |s| CrossbarSwitch::with_ports(16, Traced::new(s))),
        ),
        Workload::Ring1000 => run_ring(cfg),
    }
}

fn pim16_parts<E>(seed: u64, engine: impl FnOnce(Pim) -> E) -> (E, RateMatrixTraffic) {
    (
        engine(Pim::new(16, task_seed(seed, "pim16/sched"))),
        RateMatrixTraffic::uniform(16, 0.9, task_seed(seed, "pim16/traffic")),
    )
}

fn wide1024_parts<E>(seed: u64, engine: impl FnOnce(WidePim) -> E) -> (E, SparseUniformTraffic) {
    (
        engine(WidePim::new(1024, task_seed(seed, "wide1024/sched"))),
        SparseUniformTraffic::new(1024, 0.25, task_seed(seed, "wide1024/traffic")),
    )
}

fn mwm16_parts<E>(seed: u64, engine: impl FnOnce(Mwm) -> E) -> (E, RateMatrixTraffic) {
    (
        engine(Mwm::lqf(16)),
        RateMatrixTraffic::uniform(16, 0.95, task_seed(seed, "mwm16/traffic")),
    )
}

/// What the benchmark needs from a switch engine beyond [`SwitchModel`].
trait Engine: SwitchModel {
    /// Input–output pairs with at least one queued cell.
    fn active_pairs(&self) -> usize;
    /// Whether the engine skips `schedule` on a slot with no requests.
    fn skips_idle_slots(&self) -> bool;
    /// The engine's own conservation ledger, where it has one.
    fn ledger(&self) -> Result<(), String>;
    /// The traced scheduler's probe, if the scheduler is traced.
    fn probe(&self) -> Option<Probe>;
}

impl<S: Scheduler + Probed> Engine for CrossbarSwitch<S> {
    fn active_pairs(&self) -> usize {
        self.buffers().requests().len()
    }

    fn skips_idle_slots(&self) -> bool {
        false
    }

    fn ledger(&self) -> Result<(), String> {
        Ok(())
    }

    fn probe(&self) -> Option<Probe> {
        self.scheduler().probe()
    }
}

impl<const W: usize, S: Scheduler<W> + Probed> Engine for BatchCrossbar<S, W> {
    fn active_pairs(&self) -> usize {
        BatchCrossbar::active_pairs(self)
    }

    fn skips_idle_slots(&self) -> bool {
        self.scheduler().idle_slot_is_noop()
    }

    fn ledger(&self) -> Result<(), String> {
        self.verify_conservation()
    }

    fn probe(&self) -> Option<Probe> {
        self.scheduler().probe()
    }
}

/// One engine stepping its own traffic through warm-up, the fixed window
/// and the timed chunks after it.
struct Lane<E, T> {
    engine: E,
    traffic: T,
    traced: bool,
    buf: Vec<Arrival>,
    slot: u64,
    window_end: u64,
    skips_idle: bool,
    last_active: usize,
    queued_at_start: usize,
    offered: u64,
    counts: Counts,
    probe_at_start: Probe,
    window_probe: Probe,
    window_report: SwitchReport,
    /// Peak resident set when the window closes: how far a run goes past
    /// the window depends on host speed, and deeper queue excursions in a
    /// longer run would grow the peak.
    window_rss_mb: f64,
    timed_slots: u64,
    timed_ns: u64,
    traffic_ns: u64,
    step_ns: u64,
    step_samples: Samples,
}

impl<E: Engine, T: Traffic> Lane<E, T> {
    fn new(engine: E, traffic: T, traced: bool, w: Window) -> Self {
        let n = engine.n();
        let mut lane = Self {
            skips_idle: engine.skips_idle_slots(),
            engine,
            traffic,
            traced,
            buf: Vec::with_capacity(n),
            slot: 0,
            window_end: w.warmup + w.slots,
            last_active: 0,
            queued_at_start: 0,
            offered: 0,
            counts: Counts::default(),
            probe_at_start: Probe::default(),
            window_probe: Probe::default(),
            window_report: SwitchReport::default(),
            window_rss_mb: 0.0,
            timed_slots: 0,
            timed_ns: 0,
            traffic_ns: 0,
            step_ns: 0,
            step_samples: Samples::with_capacity(if traced { SLOT_SAMPLE_CAP } else { 0 }),
        };
        for _ in 0..w.warmup {
            lane.buf.clear();
            lane.traffic.arrivals(lane.slot, &mut lane.buf);
            lane.engine.step(&lane.buf);
            lane.slot += 1;
        }
        lane.engine.start_measurement();
        lane.queued_at_start = lane.engine.queued();
        lane.last_active = lane.engine.active_pairs();
        lane.probe_at_start = lane.engine.probe().unwrap_or_default();
        lane
    }

    /// Steps `slots` slots, timing the chunk and, when traced, the
    /// traffic and step spans of every slot.
    fn chunk(&mut self, slots: u64) {
        let start = Instant::now();
        for _ in 0..slots {
            if self.traced {
                let a = Instant::now();
                self.buf.clear();
                self.traffic.arrivals(self.slot, &mut self.buf);
                let b = Instant::now();
                self.engine.step(&self.buf);
                let c = Instant::now();
                self.traffic_ns += nanos(b - a);
                let step = nanos(c - b);
                self.step_ns += step;
                self.step_samples.record(step);
            } else {
                self.buf.clear();
                self.traffic.arrivals(self.slot, &mut self.buf);
                self.engine.step(&self.buf);
            }
            self.offered += self.buf.len() as u64;
            if self.slot < self.window_end {
                self.count_slot();
            }
            self.slot += 1;
        }
        self.timed_slots += slots;
        self.timed_ns += nanos(start.elapsed());
        if self.slot == self.window_end {
            self.window_rss_mb = peak_rss_mb();
            self.window_report = self.engine.report();
            self.counts.departures = self.window_report.departures;
            let probe = self.engine.probe().unwrap_or_default();
            self.window_probe = probe.since(&self.probe_at_start);
        }
    }

    fn count_slot(&mut self) {
        let active = self.engine.active_pairs();
        let idle = self.skips_idle && self.last_active == 0 && self.buf.is_empty();
        let c = &mut self.counts;
        c.slots += 1;
        c.arrivals += self.buf.len() as u64;
        c.sched_calls += u64::from(!idle);
        c.queued_sum += self.engine.queued() as u64;
        c.active_pairs_sum += active as u64;
        self.last_active = active;
    }

    fn in_window(&self) -> bool {
        self.slot < self.window_end
    }

    /// Slots per host second over every timed chunk.
    fn rate(&self) -> f64 {
        self.timed_slots as f64 / (self.timed_ns as f64 * 1e-9)
    }

    /// The end-of-run checks; returns the failed-operation count.
    fn audit(&self, label: &str, failures: &mut Vec<String>) -> u64 {
        let mut failed = 0;
        let r = self.engine.report();
        let before = self.queued_at_start as u64 + r.arrivals;
        let after = r.departures + r.final_occupancy as u64;
        if before != after {
            failed += before.abs_diff(after);
            failures.push(format!(
                "{label}: {} queued at window start + {} arrivals != {} departures + {} queued at end",
                self.queued_at_start, r.arrivals, r.departures, r.final_occupancy
            ));
        }
        if self.offered != r.arrivals {
            failed += self.offered.abs_diff(r.arrivals);
            failures.push(format!(
                "{label}: {} cells offered but {} admitted",
                self.offered, r.arrivals
            ));
        }
        if let Err(e) = self.engine.ledger() {
            failed += 1;
            failures.push(format!("{label}: {e}"));
        }
        if let Some(p) = self.engine.probe() {
            let bad = p.since(&self.probe_at_start).violations;
            if bad > 0 {
                failed += bad;
                failures.push(format!("{label}: {bad} matched pairs had no request"));
            }
        }
        failed
    }
}

fn run_switch<E, ET, T>(
    workload: Workload,
    w: Window,
    cfg: &RunConfig,
    make: impl Fn() -> (E, T),
    make_traced: impl Fn() -> (ET, T),
) -> Outcome
where
    E: Engine,
    ET: Engine,
    T: Traffic,
{
    debug_assert_eq!(
        w.slots % w.chunk,
        0,
        "window must close on a chunk boundary"
    );
    let mut setup = SetupTimer::new();
    let (engine, traffic) = make();
    let mut plain = Lane::new(engine, traffic, false, w);
    let mut traced = if cfg.trace {
        let (engine, traffic) = make_traced();
        Some(Lane::new(engine, traffic, true, w))
    } else {
        None
    };
    let mut host = HostSpeed::new();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    while plain.in_window() || start.elapsed() < deadline {
        if !cfg.trace {
            setup.run(start.elapsed(), &make);
        }
        plain.chunk(w.chunk);
        if let Some(t) = traced.as_mut() {
            t.chunk(w.chunk);
        }
        host.sample();
    }

    let mut failures = Vec::new();
    let mut failed = plain.audit("untraced", &mut failures);
    let digest = report_digest(&plain.window_report);
    let report = &plain.window_report;
    let mut counts = plain.counts;
    let metrics = match traced.as_mut() {
        None => metrics(
            &END_TO_END,
            &[
                ("slots_per_s", plain.rate() * host.scale()),
                ("setup_s", setup.median() / host.scale()),
                ("peak_rss_mb", plain.window_rss_mb),
                ("cell_delay_mean_slots", report.delay.mean()),
                (
                    "cell_delay_p99_slots",
                    interpolated_quantile(|p| report.delay.percentile(p), 0.99),
                ),
                (
                    "delivered_per_slot",
                    report.departures as f64 / report.slots as f64,
                ),
            ],
        ),
        Some(t) => {
            failed += t.audit("traced", &mut failures);
            let traced_digest = report_digest(&t.window_report);
            if traced_digest != digest {
                failed += 1;
                failures.push(format!(
                    "traced window digest {traced_digest:#018x} != untraced {digest:#018x}"
                ));
            }
            let wp = t.window_probe;
            if wp.calls != t.counts.sched_calls {
                failed += 1;
                failures.push(format!(
                    "wrapper saw {} schedule calls, the engine's idle-slot rule predicts {}",
                    wp.calls, t.counts.sched_calls
                ));
            }
            if wp.matches != t.counts.departures {
                failed += 1;
                failures.push(format!(
                    "wrapper returned {} matched pairs but {} cells departed",
                    wp.matches, t.counts.departures
                ));
            }
            t.counts.sched_calls = wp.calls;
            if t.counts != counts {
                failed += 1;
                failures.push(format!(
                    "traced counts {:?} != untraced {:?}",
                    t.counts, counts
                ));
            }
            counts = t.counts;
            switch_layers(t, &wp, plain.rate())
        }
    };
    Outcome {
        workload,
        attempted: plain.offered + traced.as_ref().map_or(0, |t| t.offered),
        failed,
        failures,
        digest,
        counts,
        metrics,
        note: host_note(plain.rate(), &host),
    }
}

fn host_note(raw_rate: f64, host: &HostSpeed) -> String {
    format!(
        "unscaled {raw_rate:.1} slots/s; host reference {:.4e} ops/s (scale {:.4})",
        host.ops_per_s(),
        host.scale()
    )
}

/// The per-layer metrics of a traced switch lane.
fn switch_layers<E: Engine, T: Traffic>(
    t: &mut Lane<E, T>,
    window_probe: &Probe,
    untraced_rate: f64,
) -> Vec<Metric> {
    let timed = t
        .engine
        .probe()
        .unwrap_or_default()
        .since(&t.probe_at_start);
    let slots = t.timed_slots as f64;
    let c = &t.counts;
    let w = c.slots as f64;
    let engine_self = t
        .step_ns
        .saturating_sub(timed.sched_ns + timed.feed_ns + timed.probe_ns);
    let sched_ns_per_call = ratio(timed.sched_ns as f64, timed.calls as f64);
    let accounted = t.traffic_ns + timed.sched_ns + timed.feed_ns + engine_self;
    metrics(
        &LAYERS,
        &[
            ("traffic.ns_per_slot", t.traffic_ns as f64 / slots),
            ("traffic.arrivals_per_slot", c.arrivals as f64 / w),
            ("sched.ns_per_call", sched_ns_per_call),
            (
                "sched.cell_time_ratio",
                sched_ns_per_call / LinkRate::an2().cell_time_ns(),
            ),
            ("sched.calls_per_slot", c.sched_calls as f64 / w),
            (
                "sched.matches_per_call",
                ratio(window_probe.matches as f64, window_probe.calls as f64),
            ),
            (
                "sched.served_input_ratio",
                ratio(
                    window_probe.matches as f64,
                    window_probe.requesting_inputs as f64,
                ),
            ),
            ("feed.ns_per_slot", timed.feed_ns as f64 / slots),
            (
                "feed.observations_per_slot",
                window_probe.observations as f64 / w,
            ),
            ("engine.self_ns_per_slot", engine_self as f64 / slots),
            ("engine.slot_ns_p50", t.step_samples.quantile(0.50)),
            ("engine.slot_ns_p99", t.step_samples.quantile(0.99)),
            ("engine.queued_mean", c.queued_sum as f64 / w),
            ("engine.active_pairs_mean", c.active_pairs_sum as f64 / w),
            ("trace.overhead_ratio", ratio(untraced_rate, t.rate())),
            ("trace.slot_ns", t.timed_ns as f64 / slots),
            (
                "trace.accounted_ratio",
                ratio(accounted as f64, t.timed_ns as f64),
            ),
        ],
    )
}

fn run_ring(cfg: &RunConfig) -> Outcome {
    let pool = Pool::new(RING_THREADS);
    let mut net = ShardNetConfig::thousand();
    net.seed = task_seed(cfg.seed, "ring1000/net");
    net.slots = RING_SLOTS;
    let empty = ShardNetConfig { slots: 0, ..net };
    let mut setup = SetupTimer::new();
    // The first run warms the allocator and the pool and is the reference
    // every timed run must reproduce exactly.
    let reference = run_shard_net(&net, &pool);
    let mut failures = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    let mut check = |r: &ShardReport, label: &str| {
        attempted += r.injected;
        if !r.is_conserved() {
            failed += r.injected.abs_diff(r.delivered + r.in_flight);
            failures.push(format!(
                "{label}: {} injected != {} delivered + {} in flight",
                r.injected, r.delivered, r.in_flight
            ));
        } else if r.digest != reference.digest || r.delivered != reference.delivered {
            failed += r.injected;
            failures.push(format!(
                "{label}: digest {:#018x} differs from the reference run's {:#018x}",
                r.digest, reference.digest
            ));
        }
    };
    check(&reference, "reference");

    // Runs of each kind, with their summed host time: plain 2-thread runs,
    // and in a traced run also spanned 2-thread runs and serial runs.
    let mut runs = 0u64;
    let (mut plain_ns, mut traced_ns, mut serial_ns) = (0u64, 0u64, 0u64);
    let mut timed = |pool: &Pool, total: &mut u64, label: &str| {
        let t = Instant::now();
        let r = run_shard_net(&net, pool);
        *total += nanos(t.elapsed());
        check(&r, label);
    };
    let serial = Pool::serial();
    // The network forks and joins its workers every slot, so its throughput
    // is scaled by a fork-join reference; set-up is single-threaded.
    let mut host = HostSpeed::new();
    let mut setup_host = HostSpeed::new();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    while runs == 0 || start.elapsed() < deadline {
        if !cfg.trace {
            setup.run(start.elapsed(), || run_shard_net(&empty, &pool));
        }
        timed(&pool, &mut plain_ns, "2-thread");
        if cfg.trace {
            timed(&pool, &mut traced_ns, "2-thread traced");
            timed(&serial, &mut serial_ns, "serial");
        }
        for _ in 0..RING_HOST_SAMPLES {
            host.sample_on(RING_THREADS);
        }
        setup_host.sample();
        runs += 1;
    }
    let slots = (runs * RING_SLOTS) as f64;
    let rate = slots / (plain_ns as f64 * 1e-9);

    let counts = Counts {
        slots: reference.slots,
        arrivals: reference.injected,
        departures: reference.delivered,
        in_flight_end: reference.in_flight,
        ..Counts::default()
    };
    let metrics = if cfg.trace {
        // Only the run_shard_net span is visible from outside the network,
        // so it is all engine time.
        let ns_per_slot = traced_ns as f64 / slots;
        metrics(
            &LAYERS,
            &[
                ("engine.self_ns_per_slot", ns_per_slot),
                ("net.serial_s", serial_ns as f64 * 1e-9 / runs as f64),
                (
                    "net.parallel_speedup",
                    ratio(serial_ns as f64, plain_ns as f64),
                ),
                ("net.in_flight_end", reference.in_flight as f64),
                (
                    "trace.overhead_ratio",
                    ratio(traced_ns as f64, plain_ns as f64),
                ),
                ("trace.slot_ns", ns_per_slot),
                ("trace.accounted_ratio", 1.0),
            ],
        )
    } else {
        metrics(
            &END_TO_END,
            &[
                ("slots_per_s", rate * host.scale()),
                ("setup_s", setup.median() / setup_host.scale()),
                ("peak_rss_mb", peak_rss_mb()),
                ("cell_delay_mean_slots", reference.mean_delay),
                (
                    "cell_delay_p99_slots",
                    interpolated_quantile(|p| reference.delay.quantile(p), 0.99),
                ),
                (
                    "delivered_per_slot",
                    reference.delivered as f64 / reference.slots as f64,
                ),
            ],
        )
    };
    Outcome {
        workload: Workload::Ring1000,
        attempted,
        failed,
        failures,
        digest: ring_digest(&reference),
        counts,
        metrics,
        note: host_note(rate, &host),
    }
}

/// Set-up timing spread over a run: a batch of reps runs between measured
/// chunks whenever set-up has had less than its share of the elapsed time,
/// so the median sees the same host conditions as the throughput.
#[derive(Debug)]
struct SetupTimer {
    samples: Vec<f64>,
    spent: Duration,
}

impl SetupTimer {
    /// Reserves every sample slot up front, so how many reps a run manages
    /// does not change its memory footprint.
    fn new() -> Self {
        Self {
            samples: Vec::with_capacity(SETUP_MAX_REPS),
            spent: Duration::ZERO,
        }
    }

    fn run<R>(&mut self, elapsed: Duration, mut make: impl FnMut() -> R) {
        let due = self.samples.len() < SETUP_MIN_REPS
            || (self.samples.len() < SETUP_MAX_REPS && self.spent * SETUP_SHARE < elapsed);
        if !due {
            return;
        }
        let batch = Instant::now();
        loop {
            let t = Instant::now();
            let built = black_box(make());
            self.samples.push(t.elapsed().as_secs_f64());
            drop(built);
            if self.samples.len() >= SETUP_MIN_REPS && batch.elapsed() >= SETUP_BATCH {
                break;
            }
        }
        self.spent += batch.elapsed();
    }

    fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// The `p`-quantile of an integer-valued delay distribution, interpolated
/// linearly within the one-slot bin `(d - 1, d]` that holds it, so that it
/// moves with the distribution instead of stepping by whole slots.
/// `quantile` is the distribution's nearest-rank quantile function.
fn interpolated_quantile(quantile: impl Fn(f64) -> u64, p: f64) -> f64 {
    let d = quantile(p);
    if d == 0 {
        return 0.0;
    }
    // The shares of samples below `d` and at most `d`: the quantile
    // function is a step function, so bisect for its two edges around `p`.
    let below = bisect(|x| quantile(x) < d, 0.0, p);
    let through = bisect(|x| quantile(x) <= d, p, 1.0);
    if through <= below {
        return d as f64;
    }
    d as f64 - 1.0 + (p - below) / (through - below)
}

/// The boundary in `[lo, hi]` where `pred` turns from true to false.
fn bisect(pred: impl Fn(f64) -> bool, mut lo: f64, mut hi: f64) -> f64 {
    for _ in 0..52 {
        let mid = (lo + hi) / 2.0;
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn digest_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Digest of a switch window: counters, per-output and per-flow
/// departures, and the delay distribution (moments, maximum and the delay
/// at every permille rank).
fn report_digest(r: &SwitchReport) -> u64 {
    let mut words = vec![
        r.slots,
        r.arrivals,
        r.departures,
        r.peak_occupancy as u64,
        r.final_occupancy as u64,
    ];
    words.extend(&r.departures_per_output);
    words.extend(r.departures_per_flow.iter().flat_map(|&(f, c)| [f, c]));
    let d = &r.delay;
    words.extend([
        d.count(),
        d.max(),
        d.mean().to_bits(),
        d.variance().to_bits(),
    ]);
    words.extend((1..=1000).map(|k| d.percentile(f64::from(k) / 1000.0)));
    digest_words(&words)
}

/// Digest of a ring run: the engine's own per-switch digest plus the
/// totals and the delay sketch.
fn ring_digest(r: &ShardReport) -> u64 {
    let mut words = vec![
        r.digest,
        r.slots,
        r.injected,
        r.delivered,
        r.in_flight,
        r.mean_delay.to_bits(),
        r.delay.count(),
        r.delay.max(),
    ];
    words.extend((1..=100).map(|k| r.delay.quantile(f64::from(k) / 100.0)));
    digest_words(&words)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sched::{MatchingN, RequestMatrixN};

    const SMALL: Window = Window {
        warmup: 200,
        slots: 4_000,
        chunk: 1_000,
    };

    fn traced_cfg() -> RunConfig {
        RunConfig {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
        }
    }

    /// Matches one extra pair that has no request behind it.
    struct Rogue(Pim);

    impl Probed for Rogue {}

    impl Scheduler for Rogue {
        fn schedule(&mut self, requests: &RequestMatrixN<4>) -> MatchingN<4> {
            let mut m = self.0.schedule(requests);
            let n = requests.n();
            let free_in = (0..n).find(|&i| !m.input_matched(an2_sched::InputPort::new(i)));
            let free_out = (0..n).find(|&j| !m.output_matched(an2_sched::OutputPort::new(j)));
            if let (Some(i), Some(j)) = (free_in, free_out) {
                let (i, j) = (an2_sched::InputPort::new(i), an2_sched::OutputPort::new(j));
                if !requests.has(i, j) {
                    m.pair(i, j).expect("both ports are free");
                }
            }
            m
        }

        fn name(&self) -> &'static str {
            "rogue"
        }
    }

    /// Forwards `schedule` only, dropping the defaulted trait methods.
    struct Forgetful<S>(S);

    impl<S> Probed for Forgetful<S> {}

    impl<S: Scheduler> Scheduler for Forgetful<S> {
        fn schedule(&mut self, requests: &RequestMatrixN<4>) -> MatchingN<4> {
            self.0.schedule(requests)
        }

        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    fn pim_traffic(seed: u64) -> RateMatrixTraffic {
        RateMatrixTraffic::uniform(16, 0.9, seed)
    }

    #[test]
    fn rogue_scheduler_is_reported_as_failed() {
        let o = run_switch(
            Workload::Pim16,
            SMALL,
            &traced_cfg(),
            || {
                (
                    CrossbarSwitch::with_ports(16, Pim::new(16, 1)),
                    pim_traffic(2),
                )
            },
            || {
                let rogue = Traced::new(Rogue(Pim::new(16, 1)));
                (CrossbarSwitch::with_ports(16, rogue), pim_traffic(2))
            },
        );
        assert!(!o.correct());
        assert!(o.failed > 0);
        assert!(
            o.failures.iter().any(|f| f.contains("had no request")),
            "{:?}",
            o.failures
        );
    }

    #[test]
    fn rogue_scheduler_stops_an_untraced_run() {
        let untraced = std::panic::catch_unwind(|| {
            let cfg = RunConfig {
                trace: false,
                ..traced_cfg()
            };
            let make = || {
                let sw = CrossbarSwitch::with_ports(16, Rogue(Pim::new(16, 1)));
                (sw, pim_traffic(2))
            };
            run_switch(Workload::Pim16, SMALL, &cfg, make, make)
        });
        assert!(
            untraced.is_err(),
            "an illegal matching must not finish as a fast run"
        );
    }

    #[test]
    fn idle_slots_skip_the_scheduler_through_the_wrapper() {
        let make = || {
            let sw = BatchCrossbar::<_, 4>::new(64, Pim::new(64, 1));
            (sw, SparseUniformTraffic::new(64, 0.002, 2))
        };
        let make_traced = || {
            let sw = BatchCrossbar::<_, 4>::new(64, Traced::new(Pim::new(64, 1)));
            (sw, SparseUniformTraffic::new(64, 0.002, 2))
        };
        let o = run_switch(Workload::Wide1024, SMALL, &traced_cfg(), make, make_traced);
        assert!(o.correct(), "{:?}", o.failures);
        assert!(o.counts.sched_calls < o.counts.slots / 2, "{:?}", o.counts);
    }

    #[test]
    fn a_wrapper_that_drops_idle_slot_is_noop_is_caught() {
        let make = || {
            let sw = BatchCrossbar::<_, 4>::new(64, Pim::new(64, 1));
            (sw, SparseUniformTraffic::new(64, 0.002, 2))
        };
        let make_traced = || {
            let sw = BatchCrossbar::<_, 4>::new(64, Traced::new(Forgetful(Pim::new(64, 1))));
            (sw, SparseUniformTraffic::new(64, 0.002, 2))
        };
        let o = run_switch(Workload::Wide1024, SMALL, &traced_cfg(), make, make_traced);
        assert!(!o.correct());
        assert!(
            o.failures.iter().any(|f| f.contains("traced counts")),
            "{:?}",
            o.failures
        );
    }

    #[test]
    fn a_wrapper_that_drops_queue_observations_is_caught() {
        let traffic = || RateMatrixTraffic::uniform(16, 0.95, 2);
        let o = run_switch(
            Workload::Mwm16,
            SMALL,
            &traced_cfg(),
            || (CrossbarSwitch::with_ports(16, Mwm::lqf(16)), traffic()),
            || {
                let sw = CrossbarSwitch::with_ports(16, Traced::new(Forgetful(Mwm::lqf(16))));
                (sw, traffic())
            },
        );
        assert!(!o.correct());
        assert!(
            o.failures.iter().any(|f| f.contains("digest")),
            "{:?}",
            o.failures
        );
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&LAYERS) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches(r#""name": "#).count(),
            4 + END_TO_END.len() + LAYERS.len()
        );
    }

    #[test]
    fn interpolated_quantile_moves_within_the_bin() {
        let mut d = an2_sim::DelayStats::new();
        for v in [1, 2, 2, 2, 3] {
            d.record(v);
        }
        // Ranks: 20% at 1, 80% at or below 2; the median lies half-way
        // through the bin (1, 2].
        let q = interpolated_quantile(|p| d.percentile(p), 0.5);
        assert!((q - 1.5).abs() < 1e-9, "{q}");
        assert_eq!(interpolated_quantile(|p| d.percentile(p), 1.0), 3.0);
    }

    #[test]
    fn samples_give_nearest_rank_quantiles() {
        let mut s = Samples::with_capacity(4);
        for v in [40, 10, 30, 20, 99] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.5), 20.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
