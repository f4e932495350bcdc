//! Per-fetch span-tree emission: the PLT decomposition every C-Saw
//! fetch reports when causal tracing is on.
//!
//! The paper's headline quantities are *decompositions* of user PLT:
//! how much of a blocked fetch went to detecting the blocking, how much
//! to circumvention setup (dead-end transports, relay handshakes), and
//! how much to the transfer that finally served the user (Figs. 5–7,
//! Table 5). [`emit_fetch_tree`] renders exactly that as one span tree:
//!
//! ```text
//! fetch ........................... root (dur = detect + circum + transfer)
//! ├── fetch.detect ................ blocking detection
//! ├── fetch.circum ................ circumvention setup / dead ends
//! └── fetch.transfer .............. the transfer the user saw
//! ```
//!
//! The three children are laid out back-to-back from the fetch's start
//! and the transfer leg is always computed as a remainder, so the
//! children sum to the root duration *exactly* — the invariant the
//! `report trace` checks. All three are always emitted (zero-width
//! legs included): consumers never need to special-case missing legs.
//!
//! Emission is gated on an active trace frame *and* an enabled sink, so
//! untraced runs pay one thread-local read.

use csaw_obs::json::JsonValue;
use csaw_simnet::time::SimDuration;

/// The PLT decomposition of one fetch, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchBreakdown {
    /// Time to detect blocking (zero for known-blocked or clean fetches).
    pub detect: SimDuration,
    /// Circumvention setup: dead-end transports, relay establishment.
    pub circum: SimDuration,
    /// The transfer that served (or failed to serve) the user.
    pub transfer: SimDuration,
    /// Whether the user got a genuine page.
    pub ok: bool,
}

impl FetchBreakdown {
    /// A successful fetch whose legs must sum to `plt`: `transfer` is the
    /// remainder after `detect` and `circum` (each clamped so the sum
    /// never exceeds `plt`).
    pub fn served(plt: SimDuration, detect: SimDuration, circum: SimDuration) -> FetchBreakdown {
        let detect = detect.min(plt);
        let circum = circum.min(plt.saturating_sub(detect));
        FetchBreakdown {
            detect,
            circum,
            transfer: plt.saturating_sub(detect).saturating_sub(circum),
            ok: true,
        }
    }

    /// A fetch that served nothing: the legs are the time burned trying.
    pub fn failed(detect: SimDuration, circum: SimDuration) -> FetchBreakdown {
        FetchBreakdown {
            detect,
            circum,
            transfer: SimDuration::ZERO,
            ok: false,
        }
    }
}

/// True when fetch trees should be emitted: an active trace frame and an
/// enabled sink.
pub fn tracing_fetch() -> bool {
    csaw_obs::trace::in_trace() && csaw_obs::scope::current().sink.enabled()
}

/// Emit the canonical fetch span tree (see module docs): three children
/// back-to-back from `start_us`, then the root via
/// [`csaw_obs::trace::complete_active`] so it closes the span the caller's
/// root frame opened.
pub fn emit_fetch_tree(
    start_us: u64,
    b: FetchBreakdown,
    url: &csaw_webproto::url::Url,
    transport: &str,
) {
    if !tracing_fetch() {
        return;
    }
    let detect_us = b.detect.as_micros();
    let circum_us = b.circum.as_micros();
    let transfer_us = b.transfer.as_micros();
    csaw_obs::event::span_completed_at("fetch.detect", start_us, detect_us, &[]);
    csaw_obs::event::span_completed_at("fetch.circum", start_us + detect_us, circum_us, &[]);
    csaw_obs::event::span_completed_at(
        "fetch.transfer",
        start_us + detect_us + circum_us,
        transfer_us,
        &[],
    );
    csaw_obs::trace::complete_active(
        "fetch",
        start_us,
        detect_us + circum_us + transfer_us,
        &[
            ("url", JsonValue::from(url.to_string())),
            ("transport", JsonValue::from(transport)),
            ("ok", JsonValue::from(b.ok)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_legs_sum_exactly_to_plt() {
        let plt = SimDuration::from_micros(10_000);
        let b = FetchBreakdown::served(
            plt,
            SimDuration::from_micros(4_000),
            SimDuration::from_micros(2_500),
        );
        assert_eq!(b.detect + b.circum + b.transfer, plt);
        assert_eq!(b.transfer, SimDuration::from_micros(3_500));
        assert!(b.ok);
    }

    #[test]
    fn served_clamps_oversized_legs() {
        let plt = SimDuration::from_micros(1_000);
        let b = FetchBreakdown::served(
            plt,
            SimDuration::from_micros(5_000),
            SimDuration::from_micros(5_000),
        );
        assert_eq!(b.detect, plt);
        assert_eq!(b.circum, SimDuration::ZERO);
        assert_eq!(b.transfer, SimDuration::ZERO);
        assert_eq!(b.detect + b.circum + b.transfer, plt);
    }

    #[test]
    fn failed_breakdown_has_no_transfer() {
        let b = FetchBreakdown::failed(SimDuration::from_secs(21), SimDuration::from_secs(5));
        assert!(!b.ok);
        assert_eq!(b.transfer, SimDuration::ZERO);
        assert_eq!(b.detect + b.circum + b.transfer, SimDuration::from_secs(26));
    }

    #[test]
    fn emission_outside_a_trace_is_inert() {
        assert!(!tracing_fetch());
        // Must not panic or emit.
        emit_fetch_tree(
            0,
            FetchBreakdown::served(
                SimDuration::from_micros(10),
                SimDuration::ZERO,
                SimDuration::ZERO,
            ),
            &csaw_webproto::url::Url::parse("http://x.example/").unwrap(),
            "direct",
        );
    }

    #[test]
    fn emitted_tree_children_sum_to_root() {
        use csaw_obs::scope::{install, ObsCtx};
        use csaw_obs::sink::BufferSink;
        use std::sync::Arc;
        let buf = Arc::new(BufferSink::new());
        let ctx = Arc::new(ObsCtx::new().with_sink(buf.clone()));
        let _g = install(ctx);
        let _root = csaw_obs::trace::fetch_root(7, 0, 1_000);
        emit_fetch_tree(
            1_000,
            FetchBreakdown::served(
                SimDuration::from_micros(900),
                SimDuration::from_micros(300),
                SimDuration::from_micros(200),
            ),
            &csaw_webproto::url::Url::parse("http://x.example/").unwrap(),
            "https",
        );
        let evs = buf.take();
        assert_eq!(evs.len(), 4);
        let root = evs.iter().find(|e| e.name == "fetch").unwrap();
        let kids: u64 = evs
            .iter()
            .filter(|e| e.name != "fetch")
            .map(|e| e.dur_us.unwrap())
            .sum();
        assert_eq!(root.dur_us, Some(kids));
        assert_eq!(root.trace.unwrap().parent, None);
        for e in evs.iter().filter(|e| e.name != "fetch") {
            assert_eq!(e.trace.unwrap().parent, Some(root.trace.unwrap().span));
        }
    }
}
