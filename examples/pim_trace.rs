//! Figure 2: trace one parallel-iterative-matching decision, step by step,
//! on the paper's 4×4 request pattern.
//!
//! Input 1 has cells for outputs 2 and 4; inputs 2 and 3 have cells for
//! output 2; input 4 has a cell for output 4 (1-based numbering, as in the
//! figure). Watch requests fan out, outputs grant randomly, inputs accept,
//! and a second iteration fill the gap the first one left.
//!
//! ```text
//! cargo run --example pim_trace
//! ```

use an2::sched::{AcceptPolicy, IterationLimit, Pim, RequestMatrix, Scheduler};
use an2_verify::ReferencePim;

fn main() {
    // 0-based: input 0 -> {1, 3}, inputs 1, 2 -> {1}, input 3 -> {3}.
    let requests = RequestMatrix::from_pairs(4, [(0, 1), (0, 3), (1, 1), (2, 1), (3, 3)]);
    println!("Request pattern (rows = inputs, '#' = queued cell):\n{requests:?}\n");

    // The production `Pim` runs one fused loop and exposes no phases;
    // `ReferencePim` is its textbook twin, drawing from the same per-port
    // streams in the same order, and it records every phase.
    let (limit, accept) = (IterationLimit::ToCompletion, AcceptPolicy::Random);
    let mut pim = ReferencePim::with_options(4, 0xF162, limit, accept);
    let (matching, trace) = pim.schedule_traced(&requests);
    for rec in &trace {
        println!("--- iteration {} ---", rec.iteration);
        for (j, reqs) in rec.requests.iter().enumerate() {
            if !reqs.is_empty() {
                let inputs: Vec<String> = reqs.iter().map(|i| format!("{}", i + 1)).collect();
                println!("  output {} receives requests from inputs {{{}}}", j + 1, inputs.join(", "));
            }
        }
        for (i, grants) in rec.grants.iter().enumerate() {
            if !grants.is_empty() {
                let outputs: Vec<String> = grants.iter().map(|j| format!("{}", j + 1)).collect();
                println!("  input {} holds grants from outputs {{{}}}", i + 1, outputs.join(", "));
            }
        }
        for (i, j) in &rec.accepts {
            println!("  input {} accepts output {}", i + 1, j + 1);
        }
        println!("  unresolved requests left: {}", rec.unresolved_after);
    }
    let mut production = Pim::with_options(4, 0xF162, limit, accept);
    assert_eq!(production.schedule(&requests), matching);

    println!("\ncompleted in {} iteration(s); final matching:", trace.len());
    for (i, j) in matching.pairs() {
        println!("  input {} -> output {}", i.index() + 1, j.index() + 1);
    }
    assert!(matching.is_maximal(&requests));
    println!("\nThe matching is maximal: no unmatched input still has a cell for an\nunmatched output. Outputs 2 and 4 are both carrying traffic.");
}
