//! `csaw-dbserver` — run the global-DB server standalone.
//!
//! Binds a loopback port (printed on stdout as `listening <addr>`),
//! serves the length-framed wire protocol, and drains gracefully when
//! stdin closes or a `drain` line arrives — the hermetic stand-in for
//! signal handling.
//!
//! ```text
//! csaw-dbserver [--salt N] [--shards N] [--max-risk F] [--max-pending N]
//! ```

use csaw::global::{RegistrarConfig, ServerDb};
use csaw_dbserver::{spawn_dbserver, DbServerConfig};
use csaw_simnet::time::SimDuration;
use std::io::BufRead;
use std::sync::Arc;

fn numeric<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let v = args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: bad value {v:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut salt: u64 = 7;
    let mut shards: usize = 16;
    let mut max_risk: f64 = 1.0;
    let mut max_pending: usize = DbServerConfig::default().max_posts_in_flight;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--salt" => salt = numeric(&mut args, "--salt"),
            "--shards" => shards = numeric(&mut args, "--shards"),
            "--max-risk" => max_risk = numeric(&mut args, "--max-risk"),
            "--max-pending" => max_pending = numeric(&mut args, "--max-pending"),
            "--help" | "-h" => {
                println!(
                    "usage: csaw-dbserver [--salt N] [--shards N] [--max-risk F] [--max-pending N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let server = ServerDb::builder(salt)
        .shards(shards)
        .registrar(RegistrarConfig {
            max_risk,
            max_per_window: usize::MAX,
            window: SimDuration::from_secs(3600),
        })
        .build()
        .unwrap_or_else(|e| {
            eprintln!("server build failed: {e}");
            std::process::exit(1);
        });
    let handle = spawn_dbserver(
        Arc::new(server),
        DbServerConfig {
            max_posts_in_flight: max_pending,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("bind failed: {e}");
        std::process::exit(1);
    });
    println!("listening {}", handle.addr());

    // Serve until stdin says stop (EOF or an explicit `drain` line).
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "drain" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let stats = handle.drain();
    println!(
        "drained: conns={} frames_in={} batches={} accepted={} rejected={} deferred={}",
        stats.connections_accepted,
        stats.frames_in,
        stats.batches_ingested,
        stats.reports_accepted,
        stats.reports_rejected,
        stats.reports_deferred,
    );
}
