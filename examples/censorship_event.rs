//! Replay of §7.5 "C-Saw in the Wild": the November 2017 Twitter/
//! Instagram blocking event, where different ASes blocked the same
//! service with different mechanisms — and C-Saw's in-line detection
//! picked up each variant within minutes.
//!
//! ```sh
//! cargo run --example censorship_event
//! ```

use csaw_bench::experiments::Outcome;

fn main() {
    let w = csaw_bench::experiments::wild::run(2026, 1);
    println!("{}", w.render());
    println!("Compare with the paper's snapshot:");
    println!("  * Twitter blocked from AS 38193 (Response: HTTP_GET_TIMEOUT)");
    println!("  * Twitter blocked from AS 17557 (Response: HTTP_GET_BLOCKPAGE)");
    println!("  * Instagram blocked from AS 38193 / 59257 / 45773 (Response: DNS blocking)");
}
