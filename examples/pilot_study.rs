//! A scaled replica of the paper's §7.4 pilot deployment: dozens of users
//! across 16 ASes browse a censored web for a while; the global DB's
//! aggregates are printed next to the paper's Table 7.
//!
//! ```sh
//! cargo run --release --example pilot_study            # 123 users (paper scale)
//! cargo run --release --example pilot_study -- 32      # custom user count
//! ```

use csaw_bench::experiments::Outcome;

fn main() {
    let users: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(123);
    println!("Running the pilot study with {users} users across 16 ASes...\n");
    let t = csaw_bench::experiments::table7::run(1, users);
    println!("{}", t.render());
    println!("Note: the universe (420 domains / 997 URLs / mechanism mix) follows the");
    println!("paper's published totals; the experiment validates that the full pipeline");
    println!("(browse -> detect -> aggregate -> report -> vote -> download) recovers them.");
}
