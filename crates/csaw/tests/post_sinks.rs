//! The same seeded queue drained through each in-process sink must
//! leave the client and the store in the same state (the socket leg is
//! `csaw-dbserver`'s `post_sinks.rs`).

mod support;

#[test]
fn collector_tier_drains_like_the_direct_path() {
    let reference = support::in_process();
    let (server, store) = support::rig();
    let collectors = support::instant_collectors();
    let via = support::run(&*server, &*store, |c, now| {
        let _ = c.post_reports_via(&collectors, &*server, now);
    });
    assert_eq!(via, reference);
}
