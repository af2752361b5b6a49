//! `an2-repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! an2-repro <experiment> [--full] [--seed N] [--threads N] [--out DIR]
//! ```
//!
//! Experiments: `table1 table2 fig1 fig2 fig3 fig4 fig5 fig67 fig8 fig9
//! karol latency95 appendix-a appendix-b appendix-c ablate-sched
//! crossover ablate-rng all`.
//!
//! By default runs at `--quick` statistics (seconds per experiment) on
//! all available cores; pass `--full` for paper-scale sample counts.
//! Output is **bit-identical for every `--threads` value**: each sweep
//! cell seeds its own PRNG from `task_seed(root, key)` rather than from
//! its position in a shared random stream, so the work-stealing schedule
//! cannot leak into the numbers. `--verify-serial` proves it on the spot
//! by re-running the experiment on one thread and diffing the output.

use an2_bench::{
    appendix_a, appendix_b, appendix_c, delay_curves, fairness_exp, faults, fig1, frames_demo,
    karol, latency95, perf, rng_ablation, stat_fairness, subframes, table1, table2, Effort,
};
use an2_sched::{AcceptPolicy, IterationLimit, RequestMatrix};
use an2_task::{fnv1a, task_seed, Pool};
use an2_verify::ReferencePim;

const USAGE: &str = "usage: an2-repro <experiment> [--full] [--seed N] [--threads N] [--out DIR] [--verify-serial] [--check]
       an2-repro replay <replay.json>
options:
  --full           paper-scale sample counts (default: --quick)
  --seed N         root seed; every experiment derives its own seed from
                   task_seed(N, experiment-name), every sweep cell from a
                   further task key, so output depends only on N
  --threads N      worker threads (default: all cores); any value yields
                   bit-identical output
  --out DIR        also write each experiment's render to DIR/<name>.txt
  --verify-serial  re-run each experiment on 1 thread and fail unless the
                   output is byte-identical (also covers batch1024,
                   net1000 and chaos; skipped for perf, whose report
                   contains wall-clock timings)
  --check          after rendering, run the experiment's invariant probe
                   (matching validity/maximality, VOQ capacity, cell
                   conservation, CBR frame consistency); reports to stderr
                   only, so stdout stays byte-identical; on a violation
                   writes replay.json and exits non-zero
  --scenarios N    chaos only: fault scenarios to soak (default 200
                   --quick, 1000 --full)
subcommands:
  replay FILE      re-execute a replay.json captured by --check to its
                   exact failing slot, then greedily shrink it and write
                   FILE.shrunk.json
experiments:
  table1       % of matches found within K PIM iterations (Table 1)
  table2       AN2 component cost breakdown (Table 2)
  fig1         FIFO stationary blocking vs PIM (Figure 1)
  fig2         one traced PIM run on the paper's 4x4 pattern (Figure 2)
  fig3         delay vs load: fifo/pim4/output-queued, uniform (Figure 3)
  fig4         delay vs load, client-server workload (Figure 4)
  fig5         delay vs load by PIM iteration count (Figure 5)
  fig67        CBR frame schedule + rearrangement demo (Figures 6-7)
  fig8         PIM single-switch unfairness (Figure 8)
  fig9         chain-of-switches unfairness (Figure 9)
  karol        FIFO saturation throughput vs N (~58%)
  latency95    the <13us mean delay at 95% load claim
  appendix-a   O(log N) iterations bound
  appendix-b   CBR latency/buffer bounds under clock drift
  appendix-c   statistical matching 63%/72% throughput
  ablate-sched PIM vs iSLIP vs RRM vs maximum matching
  crossover    queue-aware MWM-LQF/OCF + SERENADE vs PIM(4)/iSLIP(4)
  ablate-rng   PIM sensitivity to RNG quality
  ablate-speedup  fabric speedup k (k-grant PIM + output buffers)
  stat-fairness   statistical matching repairing Figure 8's unfairness
  subframes    frame subdivision latency/granularity trade-off (§4)
  faults       scripted link/port failures on a 3-switch chain: recovery
               time, drops, reroutes, CBR re-reservation; written to
               results/FAULTS.json (not part of `all`)
  perf         implementation throughput: slots/sec per scheduler,
               written to BENCH_sched.json (not part of `all`)
  bench-compare [OLD NEW]  print per-row speedup between two saved
               BENCH_sched.json files — kernel cases and the engine
               scaling section (defaults: results/BENCH_sched_pre.json
               vs BENCH_sched.json); with --fail-below R, exit non-zero
               unless the geometric-mean speedup over all matched rows
               is at least R
  batch1024    N=1024 single-switch run on the batched SoA engine;
               deterministic report digest on stdout, timing on stderr
  net1000      1000-switch sharded ring network (10k slots with --full);
               stdout is byte-identical for every --threads value
  chaos        seeded fault campaigns over the wide-radix engines: faults,
               degraded scheduling, recovery SLOs; writes
               results/CHAOS.json; with --check verifies conservation,
               drop ledgers and matching legality per scenario and writes
               replay.json on a violation
  all          everything above (except faults, perf, bench-compare,
               batch1024, net1000, chaos)";

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let mut effort = Effort::Quick;
    let mut seed = 0xA52_1992u64;
    let mut threads = 0usize; // 0 = all available cores
    let mut verify_serial = false;
    let mut check = false;
    let mut fail_below: Option<f64> = None;
    let mut scenarios: Option<usize> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--full" => effort = Effort::Full,
            "--quick" => effort = Effort::Quick,
            "--verify-serial" => verify_serial = true,
            "--check" => check = true,
            "--seed" => {
                i += 1;
                seed = rest.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                i += 1;
                threads = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs an integer >= 1");
                        std::process::exit(2);
                    });
            }
            "--scenarios" => {
                i += 1;
                scenarios = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&c| c >= 1)
                    .map(Some)
                    .unwrap_or_else(|| {
                        eprintln!("--scenarios needs an integer >= 1");
                        std::process::exit(2);
                    });
            }
            "--fail-below" => {
                i += 1;
                fail_below = Some(
                    rest.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&r: &f64| r.is_finite() && r > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("--fail-below needs a positive ratio");
                            std::process::exit(2);
                        }),
                );
            }
            "--out" => {
                i += 1;
                let dir = rest.get(i).unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                });
                out_dir = Some(std::path::PathBuf::from(dir));
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => {
                eprintln!("unknown option {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let pool = if threads == 0 {
        Pool::available()
    } else {
        Pool::new(threads)
    };

    let known = [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig67",
        "fig8",
        "fig9",
        "karol",
        "latency95",
        "appendix-a",
        "appendix-b",
        "appendix-c",
        "ablate-sched",
        "crossover",
        "ablate-rng",
        "ablate-speedup",
        "stat-fairness",
        "subframes",
    ];
    // Hidden hook for demonstrating the checker end to end: skews PIM's
    // accept phase in the --check probes (never in the experiments).
    let skew = std::env::var("AN2_CHECK_SKEW")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0usize);

    match cmd.as_str() {
        "all" => {
            for name in known {
                run_one(
                    name,
                    effort,
                    seed,
                    &pool,
                    verify_serial,
                    check,
                    skew,
                    out_dir.as_deref(),
                );
                println!();
            }
        }
        name if known.contains(&name) => run_one(
            name,
            effort,
            seed,
            &pool,
            verify_serial,
            check,
            skew,
            out_dir.as_deref(),
        ),
        "perf" => run_perf(effort, seed, &pool, out_dir.as_deref()),
        "faults" => run_faults(effort, seed, out_dir.as_deref()),
        "bench-compare" => run_bench_compare(&positional, fail_below),
        "batch1024" => run_batch1024(effort, seed, verify_serial),
        "net1000" => run_net1000(effort, seed, &pool, verify_serial),
        "chaos" => run_chaos(
            effort,
            seed,
            &pool,
            scenarios,
            check,
            skew,
            verify_serial,
            out_dir.as_deref(),
        ),
        "replay" => run_replay(&positional),
        "-h" | "--help" | "help" => println!("{USAGE}"),
        other => {
            eprintln!("unknown experiment {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// `perf` measures the implementation rather than reproducing a figure,
/// so it writes `BENCH_sched.json` (to `--out` if given, else the current
/// directory) instead of a `.txt` render.
fn run_perf(effort: Effort, seed: u64, pool: &Pool, out_dir: Option<&std::path::Path>) {
    let report = perf::run(effort, task_seed(seed, "perf"), pool);
    print!("{}", report.render());
    let path = out_dir
        .unwrap_or(std::path::Path::new("."))
        .join("BENCH_sched.json");
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "[perf finished in {:.3}s on {} threads; wrote {}]",
        report.total_wall_sec,
        report.threads,
        path.display()
    );
}

/// `faults` measures robustness rather than reproducing a figure, so it
/// writes `FAULTS.json` (to `--out` if given, else `results/`) instead of
/// a `.txt` render.
fn run_faults(effort: Effort, seed: u64, out_dir: Option<&std::path::Path>) {
    let started = std::time::Instant::now();
    let report = faults::run(effort, task_seed(seed, "faults"));
    print!("{}", report.render());
    let dir = out_dir.unwrap_or(std::path::Path::new("results"));
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join("FAULTS.json");
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "[faults finished in {:.1?}; wrote {}]",
        started.elapsed(),
        path.display()
    );
}

/// `bench-compare`: print the per-case speedup between two saved
/// `BENCH_sched.json` reports; with `--fail-below R`, exit non-zero when
/// the geometric-mean speedup falls under `R` (the CI regression gate).
fn run_bench_compare(paths: &[String], fail_below: Option<f64>) {
    let (old_path, new_path) = match paths {
        [] => ("results/BENCH_sched_pre.json", "BENCH_sched.json"),
        [old, new] => (old.as_str(), new.as_str()),
        _ => {
            eprintln!("bench-compare takes zero or two file arguments\n{USAGE}");
            std::process::exit(2);
        }
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(1);
        })
    };
    match perf::compare_with_geomean(&read(old_path), &read(new_path)) {
        Ok((table, geomean)) => {
            print!("{table}");
            if let Some(floor) = fail_below {
                if geomean < floor {
                    eprintln!(
                        "bench-compare: geometric-mean speedup {geomean:.2}x \
                         is below the required {floor:.2}x"
                    );
                    std::process::exit(1);
                }
                eprintln!("[bench-compare: {geomean:.2}x >= required {floor:.2}x]");
            }
        }
        Err(e) => {
            eprintln!("bench-compare: {e}");
            std::process::exit(1);
        }
    }
}

/// Renders the `batch1024` report: deterministic fields only, so repeated
/// runs byte-compare. Returns the render plus the wall-clock and measured
/// slot count for the stderr timing line.
fn render_batch1024(effort: Effort, seed: u64) -> (String, f64, u64) {
    use an2_sched::WidePim;
    use an2_sim::batch::BatchCrossbar;
    use an2_sim::traffic::{SparseUniformTraffic, Traffic as _};
    use an2_sim::SwitchModel as _;
    use std::fmt::Write as _;

    let n = 1024;
    let s = task_seed(seed, "batch1024");
    // The headline operating point: light uniform load (~51 cells/slot at
    // N=1024), where the engine sustains >=100k slots/sec.
    let load = 0.05;
    let warmup = effort.scale(500, 2_000);
    let measure = effort.scale(5_000, 50_000);
    let mut engine: BatchCrossbar<_, 16> = BatchCrossbar::new(n, WidePim::new(n, s));
    let mut traffic = SparseUniformTraffic::new(n, load, task_seed(s, "traffic"));
    let mut buf = Vec::with_capacity(n);
    for slot in 0..warmup {
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        engine.step_slot(&buf);
    }
    engine.start_measurement();
    let started = std::time::Instant::now();
    for slot in warmup..warmup + measure {
        buf.clear();
        traffic.arrivals(slot, &mut buf);
        engine.step_slot(&buf);
    }
    let wall = started.elapsed().as_secs_f64();
    let r = engine.report();
    // Deterministic fields only in the render; wall-clock goes to stderr.
    let mut digest = fnv1a(&r.slots.to_le_bytes());
    for v in [
        r.arrivals,
        r.departures,
        r.peak_occupancy as u64,
        r.final_occupancy as u64,
        r.delay.count(),
        r.delay.max(),
        r.delay.mean().to_bits(),
        r.delay.percentile(0.5),
        r.delay.percentile(0.99),
    ] {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&digest.to_le_bytes());
        bytes[8..].copy_from_slice(&v.to_le_bytes());
        digest = fnv1a(&bytes);
    }
    let mut out = String::new();
    let _ = writeln!(out, "# batch1024: pim4, load {load}, {measure} measured slots");
    let _ = writeln!(
        out,
        "arrivals {}  departures {}  peak {}  final {}",
        r.arrivals, r.departures, r.peak_occupancy, r.final_occupancy
    );
    let _ = writeln!(
        out,
        "delay mean {:.4}  p50 {}  p99 {}  max {}",
        r.delay.mean(),
        r.delay.percentile(0.5),
        r.delay.percentile(0.99),
        r.delay.max()
    );
    let _ = writeln!(out, "digest {digest:#018x}");
    (out, wall, measure)
}

/// `batch1024`: run the batched SoA engine on a 1024-port switch under
/// uniform load and print a deterministic digest of its report. The
/// digest is a pure function of the seed, so CI can byte-diff runs.
/// `--verify-serial` re-runs the (single-threaded) engine and demands the
/// same bytes, catching any nondeterminism in the engine itself.
fn run_batch1024(effort: Effort, seed: u64, verify_serial: bool) {
    let (out, wall, measure) = render_batch1024(effort, seed);
    print!("{out}");
    if verify_serial {
        let (again, _, _) = render_batch1024(effort, seed);
        if again != out {
            eprintln!(
                "[batch1024: DETERMINISM VIOLATION — re-run output differs \
                 (digests {:#018x} vs {:#018x})]",
                fnv1a(out.as_bytes()),
                fnv1a(again.as_bytes())
            );
            std::process::exit(1);
        }
        eprintln!("[batch1024: re-run is byte-identical]");
    }
    eprintln!(
        "[batch1024 finished in {wall:.3}s — {:.0} slots/sec]",
        measure as f64 / wall.max(1e-12)
    );
}

/// Renders the `net1000` report for a given pool.
fn render_net1000(effort: Effort, seed: u64, pool: &Pool) -> String {
    use an2_net::shard::{run_shard_net, ShardNetConfig};

    let mut cfg = ShardNetConfig::thousand();
    cfg.seed = task_seed(seed, "net1000");
    cfg.slots = effort.scale(2_000, 10_000);
    format!("{}\n", run_shard_net(&cfg, pool))
}

/// `net1000`: the sharded ring-network scenario. Stdout carries only
/// seed-deterministic values, so `--threads 1` and `--threads N` runs are
/// byte-identical — the CI determinism smoke diffs them, and
/// `--verify-serial` proves it in-process.
fn run_net1000(effort: Effort, seed: u64, pool: &Pool, verify_serial: bool) {
    let started = std::time::Instant::now();
    let out = render_net1000(effort, seed, pool);
    print!("{out}");
    if verify_serial && pool.threads() > 1 {
        let serial = render_net1000(effort, seed, &Pool::serial());
        if serial != out {
            eprintln!(
                "[net1000: DETERMINISM VIOLATION — {}-thread output differs from serial \
                 (digests {:#018x} vs {:#018x})]",
                pool.threads(),
                fnv1a(out.as_bytes()),
                fnv1a(serial.as_bytes())
            );
            std::process::exit(1);
        }
        eprintln!("[net1000: serial re-run is byte-identical]");
    }
    let slots = effort.scale(2_000, 10_000);
    eprintln!(
        "[net1000 finished in {:.3}s on {} threads — {:.0} switch-slots/sec]",
        started.elapsed().as_secs_f64(),
        pool.threads(),
        1000.0 * slots as f64 / started.elapsed().as_secs_f64().max(1e-12)
    );
}

/// `chaos`: soak randomized fault campaigns through the wide-radix stack,
/// record recovery SLOs to `results/CHAOS.json`, and (with `--check`)
/// fail on any invariant violation, capturing a replayable case.
#[allow(clippy::too_many_arguments)]
fn run_chaos(
    effort: Effort,
    seed: u64,
    pool: &Pool,
    scenarios: Option<usize>,
    check: bool,
    skew: usize,
    verify_serial: bool,
    out_dir: Option<&std::path::Path>,
) {
    let count = scenarios.unwrap_or(effort.scale(200, 1_000) as usize);
    let root = task_seed(seed, "chaos");
    let started = std::time::Instant::now();
    let report = an2_bench::chaos::run(count, root, check, skew, pool);
    let out = report.render();
    print!("{out}");
    if verify_serial && pool.threads() > 1 {
        let serial = an2_bench::chaos::run(count, root, check, skew, &Pool::serial());
        if serial.render() != out {
            eprintln!(
                "[chaos: DETERMINISM VIOLATION — {}-thread output differs from serial]",
                pool.threads()
            );
            std::process::exit(1);
        }
        eprintln!("[chaos: serial re-run is byte-identical]");
    }
    let dir = out_dir.unwrap_or(std::path::Path::new("results"));
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let json_path = dir.join("CHAOS.json");
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("cannot write {}: {e}", json_path.display());
        std::process::exit(1);
    }
    if let Some(fail) = report.first_failure() {
        eprintln!(
            "[chaos: INVARIANT VIOLATION in scenario {} ({} {}) — {}]",
            fail.index,
            fail.engine,
            fail.pattern,
            fail.violation.as_deref().unwrap_or("")
        );
        let case = report.replay_case().expect("failure implies a case");
        let path = out_dir
            .unwrap_or(std::path::Path::new("."))
            .join("replay.json");
        match std::fs::write(&path, case.to_json()) {
            Ok(()) => eprintln!(
                "[chaos: wrote {}; run `an2-repro replay {}` to reproduce and shrink]",
                path.display(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        std::process::exit(1);
    }
    eprintln!(
        "[chaos finished in {:.3}s on {} threads — {count} scenarios, 0 violations; wrote {}]",
        started.elapsed().as_secs_f64(),
        pool.threads(),
        json_path.display()
    );
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    name: &str,
    effort: Effort,
    seed: u64,
    pool: &Pool,
    verify_serial: bool,
    check: bool,
    skew: usize,
    out_dir: Option<&std::path::Path>,
) {
    let started = std::time::Instant::now();
    let out = render_one(name, effort, seed, pool);
    print!("{out}");
    if let Some(dir) = out_dir {
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let digest = fnv1a(out.as_bytes());
    if verify_serial && pool.threads() > 1 {
        let serial = render_one(name, effort, seed, &Pool::serial());
        if serial != out {
            eprintln!(
                "[{name}: DETERMINISM VIOLATION — {}-thread output differs from serial \
                 (digests {digest:#018x} vs {:#018x})]",
                pool.threads(),
                fnv1a(serial.as_bytes())
            );
            std::process::exit(1);
        }
        eprintln!("[{name}: serial re-run is byte-identical]");
    }
    if check {
        run_check(name, task_seed(seed, name), skew, out_dir);
    }
    eprintln!(
        "[{name} finished in {:.1?}; digest {digest:#018x}]",
        started.elapsed()
    );
}

/// Runs the experiment's invariant probe. Stderr only: stdout must stay
/// byte-identical with and without `--check`.
fn run_check(name: &str, seed: u64, skew: usize, out_dir: Option<&std::path::Path>) {
    match an2_bench::check::check_experiment(name, seed, skew) {
        Ok(summary) => eprintln!(
            "[{name}: invariants OK — {} checks over probe `{}`]",
            summary.checks, summary.probe
        ),
        Err(failure) => {
            eprintln!(
                "[{name}: INVARIANT VIOLATION at slot {} — {} (probe `{}`)]",
                failure.violation.slot, failure.violation, failure.probe
            );
            let path = out_dir
                .unwrap_or(std::path::Path::new("."))
                .join("replay.json");
            match std::fs::write(&path, failure.case.to_json()) {
                Ok(()) => eprintln!(
                    "[{name}: wrote {}; run `an2-repro replay {}` to reproduce and shrink]",
                    path.display(),
                    path.display()
                ),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
            std::process::exit(1);
        }
    }
}

/// `replay FILE`: re-execute a captured failing case to its exact slot,
/// then shrink it and save the minimised reproduction.
fn run_replay(paths: &[String]) {
    let [path] = paths else {
        eprintln!("replay takes exactly one replay.json file\n{USAGE}");
        std::process::exit(2);
    };
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let case = an2_verify::ReplayCase::from_json(&json).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let outcome = an2_verify::run_case(&case);
    match &outcome.violation {
        Some(v) => {
            println!(
                "reproduced: {v} (after {} slots, {} checks, {} cells delivered)",
                outcome.slots_run, outcome.checks, outcome.delivered
            );
            if let Some(expected) = case.failing_slot {
                if expected != v.slot {
                    println!("note: capture was annotated with slot {expected}");
                }
            }
            let shrunk = an2_verify::shrink(&case).expect("failing case must shrink");
            println!(
                "shrunk: {} slots, {} active ports (from {} slots, {} ports)",
                shrunk.slots, shrunk.active_ports, case.slots, case.active_ports
            );
            let out_path = format!("{path}.shrunk.json");
            match std::fs::write(&out_path, shrunk.to_json()) {
                Ok(()) => println!("wrote {out_path}"),
                Err(e) => {
                    eprintln!("cannot write {out_path}: {e}");
                    std::process::exit(1);
                }
            }
            std::process::exit(1);
        }
        None => {
            println!(
                "case ran clean: {} slots, {} checks, {} cells delivered, {} dropped",
                outcome.slots_run, outcome.checks, outcome.delivered, outcome.dropped
            );
        }
    }
}

/// Renders one experiment. Every experiment gets its own root seed
/// derived from the CLI seed and its name, so `--seed` steers all of them
/// and no experiment's cell keys can collide with another's.
fn render_one(name: &str, effort: Effort, seed: u64, pool: &Pool) -> String {
    let s = task_seed(seed, name);
    match name {
        "table1" => table1::run(16, effort, s, pool).render(),
        "table2" => table2::render(),
        "fig1" => fig1::run(16, effort, s, pool).render(),
        "fig2" => fig2_trace(s),
        "fig3" => delay_curves::figure_3(effort, s, pool).render(),
        "fig4" => delay_curves::figure_4(effort, s, pool).render(),
        "fig5" => delay_curves::figure_5(effort, s, pool).render(),
        "fig67" => frames_demo::run(),
        "fig8" => fairness_exp::figure_8(effort, s, pool).render(),
        "fig9" => fairness_exp::figure_9(effort, s, pool).render(),
        "karol" => karol::run(&[4, 8, 16, 32, 64], effort, s, pool).render(),
        "latency95" => latency95::run(effort, s).render(),
        "appendix-a" => appendix_a::run(&[4, 8, 16, 32, 64, 128], effort, s, pool).render(),
        "appendix-b" => appendix_b::run(effort, s, pool).render(),
        "appendix-c" => appendix_c::run(effort, s, pool).render(),
        "ablate-sched" => delay_curves::ablate_schedulers(effort, s, pool).render(),
        "crossover" => delay_curves::crossover(effort, s, pool).render(),
        "ablate-rng" => rng_ablation::run(effort, s, pool).render(),
        "ablate-speedup" => delay_curves::ablate_speedup(effort, s, pool).render(),
        "stat-fairness" => stat_fairness::run(effort, s, pool).render(),
        "subframes" => subframes::run(effort, s, pool).render(),
        _ => unreachable!("validated by caller"),
    }
}

/// Figure 2: trace one PIM scheduling decision on the paper's request
/// pattern (also available as the `pim_trace` example with commentary).
/// The trace comes from `ReferencePim`, which draws exactly as the
/// production `Pim` does and records every phase.
fn fig2_trace(seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 2: one PIM run on the paper's 4x4 pattern (1-based ports)"
    );
    let reqs = RequestMatrix::from_pairs(4, [(0, 1), (0, 3), (1, 1), (2, 1), (3, 3)]);
    let mut pim =
        ReferencePim::with_options(4, seed, IterationLimit::ToCompletion, AcceptPolicy::Random);
    let (m, trace) = pim.schedule_traced(&reqs);
    for rec in &trace {
        let _ = writeln!(out, "iteration {}:", rec.iteration);
        for (j, reqs) in rec.requests.iter().enumerate() {
            if !reqs.is_empty() {
                let from: Vec<String> = reqs.iter().map(|i| (i + 1).to_string()).collect();
                let _ = writeln!(
                    out,
                    "  output {} requested by inputs {}",
                    j + 1,
                    from.join(",")
                );
            }
        }
        for (i, grants) in rec.grants.iter().enumerate() {
            if !grants.is_empty() {
                let from: Vec<String> = grants.iter().map(|j| (j + 1).to_string()).collect();
                let _ = writeln!(
                    out,
                    "  input {} granted by outputs {}",
                    i + 1,
                    from.join(",")
                );
            }
        }
        for (i, j) in &rec.accepts {
            let _ = writeln!(out, "  accept: input {} -> output {}", i + 1, j + 1);
        }
        let _ = writeln!(
            out,
            "  unresolved requests remaining: {}",
            rec.unresolved_after
        );
    }
    let pairs: Vec<String> = m
        .pairs()
        .map(|(i, j)| format!("{}->{}", i.index() + 1, j.index() + 1))
        .collect();
    let _ = writeln!(out, "final matching: {}", pairs.join(", "));
    out
}
