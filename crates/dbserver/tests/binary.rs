//! The `csaw-dbserver` binary end to end: it prints the address it
//! listens on, serves `RemoteDb` over it, and on a `drain` line on
//! stdin drains, prints its counters and exits 0.

use csaw::global::{GlobalApi, RemoteDb};
use csaw_simnet::time::SimTime;
use csaw_store::{Batch, Report};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn the_binary_serves_then_drains_on_a_drain_line() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_csaw-dbserver"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("first line {line:?}"))
        .parse()
        .unwrap();

    let remote = RemoteDb::new(addr);
    let uuid = remote.register(SimTime::from_secs(1), 0.0).unwrap();
    let report = Report {
        url: "http://blocked.example/a".into(),
        asn: 17557,
        measured_at_us: 1_000,
        stages: vec![csaw_censor::blocking::BlockingType::HttpDrop],
    };
    let receipt = remote
        .ingest(Batch::new(uuid, vec![report], SimTime::from_secs(2)))
        .unwrap();
    assert_eq!(receipt.accepted, 1);

    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "drain").unwrap();
    line.clear();
    stdout.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim(),
        "drained: conns=1 frames_in=2 batches=1 accepted=1 rejected=0 deferred=0"
    );
    assert!(child.wait().unwrap().success());
}
