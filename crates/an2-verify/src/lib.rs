//! Verification layer for the AN2 reproduction.
//!
//! Three PRs of hot-path optimisation (zero-allocation scheduling, BMI2
//! bit tricks, a bitset Hopcroft–Karp, work-stealing parallelism) left the
//! repo's correctness story resting on pinned digests. This crate turns
//! that into machine-checked invariants, following the practice of the
//! SERENADE and iSLIP validation literature: check randomized schedulers
//! against exact naive references and closed-form queueing formulas.
//!
//! * [`oracle`] — **differential oracles**: a [`ReferencePim`] over plain
//!   `Vec`s that replicates the optimised scheduler's draw discipline
//!   bit-for-bit (port masks and the wide-width grant rule included) and
//!   records per-iteration traces, a [`ReferenceRoundRobin`] for iSLIP
//!   and RRM, a Kuhn maximum-matching reference for Hopcroft–Karp, the
//!   full-sweep [`ReferenceMwm`] that the production MWM solver must
//!   match pair for pair, a brute-force frame-schedule
//!   feasibility search for the Slepian–Duguid construction, and
//!   confidence-bound helpers for the analytic M/D/1 and Karol
//!   cross-checks.
//! * [`runner`] — an **invariant-checked probe runner** that drives a
//!   scheduler + VOQ pair slot by slot, re-verifying after every slot
//!   that the matching is a legal (optionally maximal) permutation
//!   submatrix of the requests, that VOQ occupancy respects capacity, and
//!   that cells are conserved. Unlike `an2_sched::CheckedScheduler`
//!   (which compiles its checks away in plain release builds) the runner
//!   always checks — it exists to be asked.
//! * [`replay`] — a **deterministic replay + shrink harness**: a failing
//!   probe serialises to a self-contained `replay.json` ([`ReplayCase`])
//!   that `an2-repro replay <file>` re-executes to the exact failing
//!   slot; [`replay::shrink`] greedily minimises slot count and active
//!   ports while preserving the failure.
//!
//! The runtime hooks these build on live with the code they check:
//! `an2_sched::check` (per-matching invariants), `VoqBuffers::
//! capacity_invariant_holds`, `SwitchReport::is_conserved`, and
//! `Network::verify_invariants`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod oracle;
pub mod replay;
pub mod runner;

pub use oracle::{PimIteration, ReferenceMwm, ReferencePim, ReferenceRoundRobin};
pub use replay::{shrink, ReplayCase};
pub use runner::{run_case, RunOutcome};
