//! Flow-level TCP timing model.
//!
//! The reproduction does not simulate individual segments; instead it
//! computes, analytically but stochastically, how long TCP operations take
//! on a given [`Path`]. Three behaviours matter for C-Saw:
//!
//! 1. **Connection establishment** — one RTT when the path is clean, and a
//!    classic BSD-style retransmission ladder when SYNs are black-holed
//!    (initial RTO 3 s, doubling, 2 retries: 3 + 6 + 12 = **21 s**, which is
//!    exactly the paper's Table 5 average detection time for TCP/IP
//!    blocking).
//! 2. **Data transfer** — slow-start rounds followed by serialization at
//!    the bottleneck bandwidth. The model is exactly monotone in size,
//!    and monotone in RTT up to one round of discretization (a larger
//!    RTT also enlarges the BDP window cap, which can save a round) —
//!    the properties PLT comparisons depend on.
//! 3. **Resets** — an injected RST surfaces after roughly one RTT.
//!
//! Loss on the path turns into extra RTO-scale delays with the appropriate
//! probability, so lossy-but-uncensored paths produce the long-tail PLTs
//! that C-Saw's detector must not mistake for censorship.

use crate::link::Path;
use crate::rng::DetRng;
use crate::time::SimDuration;

/// Tunables for the TCP model. Defaults are calibrated against Table 5 of
/// the paper and ordinary web-transfer behaviour.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Initial retransmission timeout for SYNs (classic 3 s).
    pub initial_rto: SimDuration,
    /// Number of SYN retransmissions before giving up.
    /// With `initial_rto` = 3 s and 2 retries: 3 + 6 + 12 = 21 s total.
    pub syn_retries: u32,
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Initial congestion window, in segments (RFC 6928's IW10).
    pub init_cwnd_segments: u32,
    /// Server think time before the first response byte, beyond the RTT.
    pub server_think: SimDuration,
    /// How long a client waits for an HTTP response before declaring a
    /// GET timeout (the paper's `HTTP_GET_TIMEOUT` observations).
    pub http_timeout: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            initial_rto: SimDuration::from_secs(3),
            syn_retries: 2,
            mss: 1460,
            init_cwnd_segments: 10,
            server_think: SimDuration::from_millis(30),
            http_timeout: SimDuration::from_secs(30),
        }
    }
}

impl TcpConfig {
    /// Total time spent before a black-holed connect attempt is abandoned:
    /// the sum of the full RTO ladder.
    pub fn connect_timeout_total(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut rto = self.initial_rto;
        for _ in 0..=self.syn_retries {
            total += rto;
            rto = rto * 2;
        }
        total
    }
}

/// Outcome of a connection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectOutcome {
    /// Handshake completed after `elapsed`.
    Established {
        /// Time from first SYN to handshake completion.
        elapsed: SimDuration,
    },
    /// Every SYN (or SYN-ACK) vanished; gave up after `elapsed`.
    Timeout {
        /// Time burned on the full RTO ladder.
        elapsed: SimDuration,
    },
    /// A RST arrived after `elapsed` (censor or server refusal).
    Reset {
        /// Time until the RST surfaced.
        elapsed: SimDuration,
    },
}

impl ConnectOutcome {
    /// Time consumed by the attempt regardless of how it ended.
    pub fn elapsed(&self) -> SimDuration {
        match *self {
            ConnectOutcome::Established { elapsed }
            | ConnectOutcome::Timeout { elapsed }
            | ConnectOutcome::Reset { elapsed } => elapsed,
        }
    }
}

/// Attempt a TCP handshake over a clean (non-black-holed) path.
///
/// Each attempt needs the SYN and the SYN-ACK to survive; per-packet loss
/// comes from the path. A lost round costs the current RTO, which then
/// doubles. If every attempt in the ladder is unlucky the connect times
/// out even without a censor — rare on sane paths, but exactly the
/// ambiguity C-Saw's redundant requests are designed to resolve.
pub fn connect(path: &Path, cfg: &TcpConfig, rng: &mut DetRng) -> ConnectOutcome {
    let mut elapsed = SimDuration::ZERO;
    let mut rto = cfg.initial_rto;
    for attempt in 0..=cfg.syn_retries {
        let syn_lost = path.packet_lost(rng);
        let synack_lost = path.packet_lost(rng);
        if !syn_lost && !synack_lost {
            return ConnectOutcome::Established {
                elapsed: elapsed + path.sample_rtt(rng),
            };
        }
        elapsed += rto;
        rto = rto * 2;
        let _ = attempt;
    }
    ConnectOutcome::Timeout { elapsed }
}

/// A connect attempt against a SYN black hole: always consumes the full
/// RTO ladder.
pub fn connect_blackholed(cfg: &TcpConfig) -> ConnectOutcome {
    ConnectOutcome::Timeout {
        elapsed: cfg.connect_timeout_total(),
    }
}

/// A connect attempt answered by an injected RST: fails after ~1 RTT.
pub fn connect_reset(path: &Path, rng: &mut DetRng) -> ConnectOutcome {
    ConnectOutcome::Reset {
        elapsed: path.sample_rtt(rng),
    }
}

/// Time to move `size_bytes` from server to client over an established
/// connection: slow-start RTT rounds plus serialization at the bottleneck.
pub fn transfer_time(
    size_bytes: u64,
    rtt: SimDuration,
    bottleneck_bps: u64,
    cfg: &TcpConfig,
) -> SimDuration {
    if size_bytes == 0 {
        return SimDuration::ZERO;
    }
    let mss = cfg.mss as u64;
    // Congestion window is capped by the bandwidth-delay product: once the
    // pipe is full, extra window buys nothing.
    let bdp_bytes = ((bottleneck_bps as u128 * rtt.as_micros() as u128) / 8_000_000) as u64;
    let init = cfg.init_cwnd_segments as u64 * mss;
    let cap = bdp_bytes.max(init);

    let mut cwnd = init;
    let mut delivered = 0u64;
    let mut rounds = 0u64;
    while delivered < size_bytes {
        delivered += cwnd;
        cwnd = (cwnd * 2).min(cap);
        rounds += 1;
        // Safety valve: a pathological (cap = tiny) configuration should
        // not loop forever; serialization term below dominates anyway.
        if rounds > 10_000 {
            break;
        }
    }
    let rtt_component = SimDuration::from_micros(rtt.as_micros() * rounds);
    let serialization =
        SimDuration::from_micros((size_bytes as u128 * 8_000_000 / bottleneck_bps as u128) as u64);
    rtt_component + serialization
}

/// Outcome of a full request/response exchange on an established
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// Response fully received after `elapsed` (measured from request send).
    Done {
        /// Time from request send to last response byte.
        elapsed: SimDuration,
    },
    /// No response within the HTTP timeout (request or response dropped
    /// mid-flight — the paper's `HTTP_GET_TIMEOUT`).
    GetTimeout {
        /// Time burned waiting (the configured HTTP timeout).
        elapsed: SimDuration,
    },
    /// Connection reset while waiting for the response.
    ResetMidFlight {
        /// Time until the RST surfaced.
        elapsed: SimDuration,
    },
}

impl ExchangeOutcome {
    /// Time consumed regardless of how the exchange ended.
    pub fn elapsed(&self) -> SimDuration {
        match *self {
            ExchangeOutcome::Done { elapsed }
            | ExchangeOutcome::GetTimeout { elapsed }
            | ExchangeOutcome::ResetMidFlight { elapsed } => elapsed,
        }
    }

    /// True if a complete response was received.
    pub fn is_done(&self) -> bool {
        matches!(self, ExchangeOutcome::Done { .. })
    }
}

/// Perform a request/response exchange: one-way request, server think time,
/// then the response transfer. Loss manifests as RTO-scale stalls.
pub fn exchange(
    path: &Path,
    response_bytes: u64,
    cfg: &TcpConfig,
    rng: &mut DetRng,
) -> ExchangeOutcome {
    let rtt = path.sample_rtt(rng);
    let mut elapsed = rtt / 2; // request flies one way
    elapsed += cfg.server_think;
    elapsed += transfer_time(response_bytes, rtt, path.bottleneck_bps(), cfg);
    // Each loss event stalls the flow roughly one RTO; approximate the
    // number of loss events binomially over the segment count.
    let segs = (response_bytes / cfg.mss as u64).max(1);
    let loss = path.loss();
    if loss > 0.0 {
        let mut stalls = 0u64;
        // For small segment counts sample exactly; for large, use the mean.
        if segs <= 64 {
            for _ in 0..segs {
                if rng.chance(loss) {
                    stalls += 1;
                }
            }
        } else {
            stalls = ((segs as f64 * loss).round()) as u64;
        }
        elapsed += SimDuration::from_micros(cfg.initial_rto.as_micros() / 3 * stalls);
    }
    let out = if elapsed > cfg.http_timeout {
        ExchangeOutcome::GetTimeout {
            elapsed: cfg.http_timeout,
        }
    } else {
        ExchangeOutcome::Done { elapsed }
    };
    trace_flow(&out, response_bytes);
    out
}

/// Emit a flow-completion span into the active fetch trace, placed at
/// the trace cursor (where the enclosing stage currently sits on the
/// fetch's waterfall). Inert outside a trace or with a disabled sink,
/// and never draws from any RNG — instrumentation cannot perturb the
/// simulation.
fn trace_flow(out: &ExchangeOutcome, response_bytes: u64) {
    if !csaw_obs::trace::in_trace() || !csaw_obs::scope::current().sink.enabled() {
        return;
    }
    csaw_obs::event::span_completed_at(
        "simnet.flow",
        csaw_obs::trace::cursor_us().unwrap_or(0),
        out.elapsed().as_micros(),
        &[
            ("bytes", csaw_obs::json::JsonValue::from(response_bytes)),
            ("done", csaw_obs::json::JsonValue::from(out.is_done())),
        ],
    );
}

/// An exchange whose request (or response) is silently dropped by a censor:
/// the client burns the full HTTP timeout.
pub fn exchange_dropped(cfg: &TcpConfig) -> ExchangeOutcome {
    let out = ExchangeOutcome::GetTimeout {
        elapsed: cfg.http_timeout,
    };
    trace_flow(&out, 0);
    out
}

/// An exchange killed by an injected RST shortly after the request.
pub fn exchange_reset(path: &Path, rng: &mut DetRng) -> ExchangeOutcome {
    let out = ExchangeOutcome::ResetMidFlight {
        elapsed: path.sample_rtt(rng),
    };
    trace_flow(&out, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;

    fn clean_path(rtt_ms: u64) -> Path {
        Path::single(Link {
            latency: SimDuration::from_millis(rtt_ms / 2),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 50_000_000,
        })
    }

    #[test]
    fn default_ladder_is_21s() {
        let cfg = TcpConfig::default();
        assert_eq!(cfg.connect_timeout_total(), SimDuration::from_secs(21));
        assert_eq!(
            connect_blackholed(&cfg).elapsed(),
            SimDuration::from_secs(21)
        );
    }

    #[test]
    fn clean_connect_is_one_rtt() {
        let mut rng = DetRng::new(1);
        let p = clean_path(100);
        let cfg = TcpConfig::default();
        match connect(&p, &cfg, &mut rng) {
            ConnectOutcome::Established { elapsed } => {
                assert_eq!(elapsed, SimDuration::from_millis(100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reset_surfaces_after_rtt() {
        let mut rng = DetRng::new(2);
        let p = clean_path(80);
        let out = connect_reset(&p, &mut rng);
        assert_eq!(out.elapsed(), SimDuration::from_millis(80));
        assert!(matches!(out, ConnectOutcome::Reset { .. }));
    }

    #[test]
    fn lossy_connect_sometimes_stalls_but_usually_succeeds() {
        let mut rng = DetRng::new(3);
        let p = Path::single(Link {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss: 0.05,
            bandwidth_bps: 1_000_000_000,
        });
        let cfg = TcpConfig::default();
        let mut established = 0;
        let mut stalled = 0;
        for _ in 0..500 {
            match connect(&p, &cfg, &mut rng) {
                ConnectOutcome::Established { elapsed } => {
                    established += 1;
                    if elapsed >= cfg.initial_rto {
                        stalled += 1;
                    }
                }
                ConnectOutcome::Timeout { .. } => {}
                ConnectOutcome::Reset { .. } => unreachable!(),
            }
        }
        assert!(established > 480, "established {established}");
        assert!(stalled > 10, "stalled {stalled}");
    }

    #[test]
    fn transfer_monotone_in_size() {
        let cfg = TcpConfig::default();
        let rtt = SimDuration::from_millis(100);
        let mut prev = SimDuration::ZERO;
        for size in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            let t = transfer_time(size, rtt, 20_000_000, &cfg);
            assert!(t >= prev, "size {size}: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn transfer_monotone_in_rtt() {
        let cfg = TcpConfig::default();
        let mut prev = SimDuration::ZERO;
        for rtt_ms in [10u64, 50, 100, 200, 400] {
            let t = transfer_time(360_000, SimDuration::from_millis(rtt_ms), 20_000_000, &cfg);
            assert!(t >= prev, "rtt {rtt_ms}: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn zero_bytes_is_free() {
        let cfg = TcpConfig::default();
        assert_eq!(
            transfer_time(0, SimDuration::from_millis(50), 1_000_000, &cfg),
            SimDuration::ZERO
        );
    }

    #[test]
    fn small_page_fits_one_window() {
        // 10 KB fits inside IW10 (10 * 1460 = 14600 B): one round.
        let cfg = TcpConfig::default();
        let rtt = SimDuration::from_millis(100);
        let t = transfer_time(10_000, rtt, 100_000_000, &cfg);
        // one RTT round plus sub-ms serialization
        assert!(t >= rtt && t < rtt + SimDuration::from_millis(5), "{t}");
    }

    #[test]
    fn exchange_done_and_dropped() {
        let mut rng = DetRng::new(5);
        let p = clean_path(60);
        let cfg = TcpConfig::default();
        let ok = exchange(&p, 50_000, &cfg, &mut rng);
        assert!(ok.is_done());
        assert!(ok.elapsed() > SimDuration::from_millis(60));
        let dropped = exchange_dropped(&cfg);
        assert_eq!(dropped.elapsed(), cfg.http_timeout);
        assert!(!dropped.is_done());
    }

    #[test]
    fn huge_transfer_hits_http_timeout() {
        let mut rng = DetRng::new(6);
        // 1 Mbps bottleneck, 100 MB response: serialization alone is 800 s.
        let p = Path::single(Link {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 1_000_000,
        });
        let cfg = TcpConfig::default();
        let out = exchange(&p, 100_000_000, &cfg, &mut rng);
        assert!(matches!(out, ExchangeOutcome::GetTimeout { .. }));
        assert_eq!(out.elapsed(), cfg.http_timeout);
    }
}
