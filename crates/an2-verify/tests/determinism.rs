//! The pinned decision digests of an2-sched's `determinism.rs`, asserted
//! for the plain-`Vec` oracles.
//!
//! The production schedulers have one path each; these constants are the
//! same ones that path is pinned to, so an oracle drift and a production
//! drift both show up as a digest mismatch. The per-iteration trace is
//! pinned here only: `ReferencePim::schedule_traced` is its one source.

use an2_sched::rng::Xoshiro256;
use an2_sched::{
    AcceptPolicy, InputPort, IterationLimit, Matching, RequestMatrix, WideMatching,
    WideRequestMatrix,
};
use an2_verify::{ReferencePim, ReferenceRoundRobin};

const SLOTS: usize = 128;
const N: usize = 16;

/// FNV-1a, byte for byte the digest an2-sched's `determinism.rs` uses.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn matching(&mut self, m: &Matching) {
        for i in 0..m.n() {
            let j = m
                .output_of(InputPort::new(i))
                .map_or(0xFF, |j| j.index() as u8);
            self.byte(j);
        }
    }
}

/// The request sequence of an2-sched's `determinism.rs`.
fn request_sequence() -> Vec<RequestMatrix> {
    let mut gen = Xoshiro256::seed_from(0xD15C0);
    let densities = [0.1, 0.5, 0.9, 1.0, 0.0];
    (0..SLOTS)
        .map(|s| RequestMatrix::random(N, densities[s % densities.len()], &mut gen))
        .collect()
}

#[track_caller]
fn assert_digest(actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "decision sequence changed: actual {actual:#018x}, recorded {expected:#018x}"
    );
}

/// The 16-port PIM digests, for the oracle.
#[test]
fn reference_pim_matches_the_pinned_narrow_digests() {
    let cases = [
        (
            IterationLimit::Fixed(4),
            AcceptPolicy::Random,
            0xbd1c7ae0bbea76c9,
        ),
        (
            IterationLimit::ToCompletion,
            AcceptPolicy::Random,
            0x204f4cddd3762200,
        ),
        (
            IterationLimit::Fixed(4),
            AcceptPolicy::RoundRobin,
            0x015195618db34220,
        ),
        (
            IterationLimit::Fixed(4),
            AcceptPolicy::LowestIndex,
            0x93c54e9f10936bc1,
        ),
    ];
    for (limit, accept, expected) in cases {
        let mut s = ReferencePim::with_options(N, 42, limit, accept);
        let mut d = Digest::new();
        for reqs in &request_sequence() {
            d.matching(&s.schedule(reqs));
        }
        assert_digest(d.0, expected);
    }
    let mut islip = ReferenceRoundRobin::islip(N, 4);
    let mut rrm = ReferenceRoundRobin::rrm(N, 4);
    let (mut di, mut dr) = (Digest::new(), Digest::new());
    for reqs in &request_sequence() {
        di.matching(&islip.schedule(reqs));
        dr.matching(&rrm.schedule(reqs));
    }
    assert_digest(di.0, 0xc0e22f543d31ba0c);
    assert_digest(dr.0, 0xf9594c1edd360802);
}

/// `pim_stats_trajectory`'s constant, rebuilt from the oracle's trace:
/// iterations run, completion, then cumulative matches and unresolved
/// requests after each iteration.
#[test]
fn pim_stats_trajectory() {
    let mut s = ReferencePim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::Random);
    let mut d = Digest::new();
    for reqs in &request_sequence() {
        let (m, trace) = s.schedule_traced(reqs);
        d.matching(&m);
        d.u64(trace.len() as u64);
        d.u64(m.is_maximal(reqs) as u64);
        let mut matched = 0;
        for rec in &trace {
            matched += rec.accepts.len();
            d.u64(matched as u64);
            d.u64(rec.unresolved_after as u64);
        }
    }
    assert_digest(d.0, 0x5a1a8c75b9743518);
}

/// The per-iteration request, grant and accept sets of every slot.
#[test]
fn pim_trace_records() {
    let mut s = ReferencePim::with_options(N, 42, IterationLimit::Fixed(4), AcceptPolicy::Random);
    let mut d = Digest::new();
    for reqs in &request_sequence() {
        let (m, trace) = s.schedule_traced(reqs);
        for rec in &trace {
            d.u64(rec.iteration as u64);
            d.u64(rec.unresolved_after as u64);
            for set in rec.requests.iter().chain(rec.grants.iter()) {
                for &member in set {
                    d.byte(member as u8);
                }
                d.byte(0xFE);
            }
            for &(i, j) in &rec.accepts {
                d.byte(i as u8);
                d.byte(j as u8);
            }
        }
        d.matching(&m);
    }
    assert_digest(d.0, 0x52c08599cb6f159c);
}

/// The wide (1024-port) PIM, iSLIP and RRM digests of an2-sched's
/// `wide_sparse_kernels_are_pinned`, for the oracles.
#[test]
fn wide_reference_kernels_are_pinned() {
    const WN: usize = 1024;
    let mut gen = Xoshiro256::seed_from(0xD15C0);
    let densities = [0.0001, 0.001, 0.01, 0.0];
    let seq: Vec<WideRequestMatrix> = (0..24)
        .map(|s| WideRequestMatrix::random(WN, densities[s % densities.len()], &mut gen))
        .collect();
    fn digest_of(
        seq: &[WideRequestMatrix],
        mut run: impl FnMut(&WideRequestMatrix) -> WideMatching,
    ) -> u64 {
        let mut d = Digest::new();
        for reqs in seq {
            let m = run(reqs);
            assert!(m.respects(reqs));
            for i in 0..m.n() {
                d.u64(
                    m.output_of(InputPort::new(i))
                        .map_or(u64::MAX, |j| j.index() as u64),
                );
            }
        }
        d.0
    }

    let mut pim = ReferencePim::new(WN, 42);
    assert_digest(digest_of(&seq, |r| pim.schedule(r)), 0x8b6b3e121b269c02);
    let mut islip = ReferenceRoundRobin::islip(WN, 4);
    assert_digest(digest_of(&seq, |r| islip.schedule(r)), 0x98901a9c12f643c8);
    let mut rrm = ReferenceRoundRobin::rrm(WN, 4);
    assert_digest(digest_of(&seq, |r| rrm.schedule(r)), 0x5581f9175a1a3c52);
}
