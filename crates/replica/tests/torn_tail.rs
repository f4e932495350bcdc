//! A crash at any byte of the disk log: `JsonlStore::open` must recover
//! the lines that reached the disk whole, drop a torn last line, and
//! leave a file the next append extends cleanly.
//!
//! A log of six batches, a revoke and an expire is cut to every length
//! `k` from 0 to its size. For each cut, the reopened store must have
//! the fingerprint of the whole lines in the prefix replayed one by one,
//! and one more ingest, a flush and a reopen must give a file of exactly
//! those lines plus the new one.

use csaw_censor::blocking::BlockingType;
use csaw_obs::scope::{self, ObsCtx};
use csaw_replica::fingerprint_of;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_store::{wal, Batch, JsonlStore, Report, ShardedStore, StorageBackend, Uuid};
use std::path::PathBuf;
use std::sync::Arc;

fn batch(client: u64, urls: &[&str], t: u64) -> Batch {
    Batch::new(
        Uuid::from_raw(client),
        urls.iter()
            .map(|u| Report {
                url: (*u).into(),
                asn: 9,
                measured_at_us: t,
                stages: vec![BlockingType::HttpDrop, BlockingType::DnsHijack],
            })
            .collect(),
        SimTime::from_micros(t),
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "csaw-torn-tail-{}-{name}.jsonl",
        std::process::id()
    ))
}

/// The full log, as `JsonlStore` writes it.
fn write_log() -> Vec<u8> {
    let path = tmp("full");
    let _ = std::fs::remove_file(&path);
    let store = JsonlStore::open(&path, 4).unwrap();
    for c in 1..=6u64 {
        let url = format!("http://u{}.example/", c % 4);
        store
            .ingest(&batch(c, &[&url, "http://é.example/\"q\""], c * 1_000_000))
            .unwrap();
    }
    store.revoke(Uuid::from_raw(2));
    store.expire_records(SimTime::from_secs(10), SimDuration::from_secs(8));
    store.flush().unwrap();
    drop(store);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn a_log_cut_at_every_byte_reopens_to_its_whole_lines() {
    let ctx = Arc::new(ObsCtx::new());
    let _g = scope::install(ctx.clone());
    let full = write_log();
    let text = std::str::from_utf8(&full).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8);
    // Where each line's text ends (its newline not included).
    let ends: Vec<usize> = lines
        .iter()
        .scan(0, |start, l| {
            let end = *start + l.len();
            *start = end + 1;
            Some(end)
        })
        .collect();
    let extra = batch(99, &["http://after.example/"], 50_000_000);
    let extra_line = wal::ingest_line(&extra);

    let path = tmp("cut");
    let mut torn = 0;
    for k in 0..=full.len() {
        std::fs::write(&path, &full[..k]).unwrap();
        let whole = ends.iter().take_while(|&&end| end <= k).count();
        let last_start = ends[..whole].last().map_or(0, |&end| end + 1);
        torn += usize::from(k > last_start);

        let expected = ShardedStore::new(3).unwrap();
        for line in &lines[..whole] {
            wal::replay_line(&expected, line).unwrap();
        }
        let store = JsonlStore::open(&path, 4).unwrap_or_else(|e| panic!("cut at {k}: {e}"));
        assert_eq!(
            fingerprint_of(&store),
            fingerprint_of(&expected),
            "cut at {k}"
        );

        store.ingest(&extra).unwrap();
        store.flush().unwrap();
        drop(store);
        let after = std::fs::read_to_string(&path).unwrap();
        let mut want: Vec<&str> = lines[..whole].to_vec();
        want.push(&extra_line);
        assert_eq!(after.lines().collect::<Vec<_>>(), want, "cut at {k}");
        assert!(after.ends_with('\n'), "cut at {k}");

        let reopened = JsonlStore::open(&path, 4).unwrap_or_else(|e| panic!("cut at {k}: {e}"));
        expected.ingest(&extra).unwrap();
        assert_eq!(
            fingerprint_of(&reopened),
            fingerprint_of(&expected),
            "cut at {k}"
        );
    }
    let _ = std::fs::remove_file(&path);
    // Every cut inside a line (not at its end) left one torn fragment.
    let dropped = ctx.registry.counter("store.wal.torn_tail_dropped").get();
    assert_eq!(dropped, torn as u64);
    assert_eq!(torn, full.len() + 1 - 2 * lines.len() - 1);
}
