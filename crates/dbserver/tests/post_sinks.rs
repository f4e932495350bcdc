//! The socket leg of `csaw`'s sink table: the same seeded queue drained
//! through a `RemoteDb` — directly, and with the collector tier in
//! front — must end where the in-process drain ends.

#[path = "../../csaw/tests/support/mod.rs"]
mod support;

use csaw::global::RemoteDb;
use csaw_dbserver::{spawn_dbserver, DbServerConfig};

#[test]
fn socket_sinks_drain_like_the_in_process_path() {
    let reference = support::in_process();

    let (server, store) = support::rig();
    let handle = spawn_dbserver(server, DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(handle.addr());
    let direct = support::run(&remote, &*store, |c, now| {
        c.post_reports(&remote, now);
    });
    assert_eq!(direct, reference);
    handle.drain();

    let (server, store) = support::rig();
    let handle = spawn_dbserver(server, DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(handle.addr());
    let collectors = support::instant_collectors();
    let via = support::run(&remote, &*store, |c, now| {
        let _ = c.post_reports_via(&collectors, &remote, now);
    });
    assert_eq!(via, reference);
    handle.drain();
}
