//! Host-speed reference for normalising throughput.
//!
//! On a shared virtual machine the simulator's speed drifts by ±15–30%
//! over seconds to minutes, because other tenants contend for the physical
//! core. [`HostSpeed`] samples a fixed integer kernel between measured
//! chunks. The kernel lives in this package, so no change to the library
//! can move it. Reported throughput is scaled by how fast the kernel ran
//! against [`NOMINAL_OPS_PER_S`], its typical rate on the host the
//! benchmark was tuned on.
//!
//! The kernel is chosen to slow down as much as the simulator does when the
//! core is contended. It runs eight independent integer chains with
//! L1-resident table lookups and a data-dependent branch. A dependent-chain
//! loop slows far less than the simulator under the same contention, so it
//! would correct only part of the drift.

use std::hint::black_box;
use std::time::Instant;

/// Typical kernel rate, in iterations per second, on the host the
/// benchmark was tuned on (2-vCPU KVM guest, Xeon at 2.1 GHz).
pub const NOMINAL_OPS_PER_S: f64 = 1.6e8;

/// Kernel iterations per sample (about 6 ms on the tuning host).
const SAMPLE_ITERS: u64 = 1_000_000;

/// Fork-join rounds per multi-threaded sample.
const SPAWN_ROUNDS: u64 = 50;

/// Accumulated samples of the reference kernel.
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u32>,
    iters: u64,
    ns: u128,
}

impl HostSpeed {
    /// A reference with no samples yet.
    pub fn new() -> Self {
        let mut x = 12_345_u32;
        let table = (0..1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Self {
            table,
            iters: 0,
            ns: 0,
        }
    }

    /// Runs the kernel once and adds its time to the total.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(kernel(&self.table, black_box(SAMPLE_ITERS)));
        self.ns += start.elapsed().as_nanos();
        self.iters += SAMPLE_ITERS;
    }

    /// Runs the kernel on each of `threads` threads at the same time, in
    /// [`SPAWN_ROUNDS`] rounds that each spawn and join the extra threads,
    /// and adds the wall time to the total. This mirrors a run that forks
    /// and joins workers every slot and waits for the slowest core (the
    /// network's per-slot `Pool::map`), so thread start-up and cross-core
    /// wake-ups are scaled too.
    pub fn sample_on(&mut self, threads: usize) {
        let table = &self.table;
        let iters = SAMPLE_ITERS / SPAWN_ROUNDS;
        let start = Instant::now();
        for _ in 0..SPAWN_ROUNDS {
            std::thread::scope(|scope| {
                for _ in 1..threads {
                    scope.spawn(|| black_box(kernel(table, black_box(iters))));
                }
                black_box(kernel(table, black_box(iters)));
            });
        }
        self.ns += start.elapsed().as_nanos();
        self.iters += iters * SPAWN_ROUNDS;
    }

    /// Measured kernel iterations per second over every sample.
    pub fn ops_per_s(&self) -> f64 {
        self.iters as f64 / (self.ns as f64 * 1e-9)
    }

    /// The factor that scales a throughput measured on this host, at this
    /// time, to the nominal host speed.
    pub fn scale(&self) -> f64 {
        NOMINAL_OPS_PER_S / self.ops_per_s()
    }
}

fn kernel(table: &[u32], iters: u64) -> u64 {
    let mut s = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut acc = [0u64; 4];
    for i in 0..iters {
        for x in &mut s[..4] {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
        }
        for x in &mut s[4..] {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        for k in 0..4 {
            acc[k] = acc[k].wrapping_add(u64::from(table[s[k] as usize & 1023]) ^ s[k + 4]);
        }
        if acc[0] & 1 == 0 {
            acc[1] = acc[1].rotate_left(3);
        } else {
            acc[2] = acc[2].wrapping_add(i);
        }
    }
    acc.iter().fold(0, |a, b| a ^ b)
}
