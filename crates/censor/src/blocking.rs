//! The blocking taxonomy.
//!
//! §2.1 of the paper catalogues how web censors intervene at each layer of
//! the stack; Table 5 measures how long each takes to detect; Figure 2
//! breaks observed blocking into five ONI categories. This module defines
//! the per-layer *actions* a censor model can take, and the summary
//! [`BlockingType`] recorded in C-Saw's databases.

use std::fmt;
use std::net::Ipv4Addr;

/// What a censor does to a DNS query/response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsTamper {
    /// Leave it alone.
    None,
    /// Drop the query (and any response): the stub resolver times out.
    Drop,
    /// Forge a response pointing at `target` (a local host, a block-page
    /// server, or garbage). ISP-B in the paper's case study resolved
    /// YouTube "to a local host in ISP-B".
    HijackTo(Ipv4Addr),
    /// Forge an NXDOMAIN.
    Nxdomain,
    /// Return SERVFAIL — surfaces only after the resolver's retry ladder
    /// (Table 5: 10.6 s average).
    Servfail,
    /// Return REFUSED — surfaces in one RTT (Table 5: 25 ms average).
    Refused,
}

impl DnsTamper {
    /// Does this tamper do anything?
    pub fn is_active(self) -> bool {
        !matches!(self, DnsTamper::None)
    }
}

/// What a censor does at the TCP/IP layer, keyed on destination address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpAction {
    /// Leave the flow alone.
    None,
    /// Black-hole packets: SYNs vanish, the client burns the RTO ladder
    /// (Table 5: 21 s average).
    Drop,
    /// Inject a RST: the client fails fast but visibly.
    Rst,
}

impl IpAction {
    /// Does this action do anything?
    pub fn is_active(self) -> bool {
        !matches!(self, IpAction::None)
    }
}

/// What a censor does to a plaintext HTTP request it can parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpAction {
    /// Leave it alone.
    None,
    /// Silently drop the GET: the client sees an HTTP timeout
    /// (`HTTP_GET_TIMEOUT` in the paper's §7.5 snapshot).
    Drop,
    /// Inject a TCP RST after the request is observed.
    Rst,
    /// Redirect (302) the client to a block-page server — ISP-A's
    /// behaviour in Table 1.
    BlockPageRedirect,
    /// Serve a block page directly in-band (ISP-B's iframe variant in
    /// Table 1; ONI's "Block Page w/o Redir").
    BlockPageInline,
}

impl HttpAction {
    /// Does this action do anything?
    pub fn is_active(self) -> bool {
        !matches!(self, HttpAction::None)
    }

    /// Does this action deliver a block page (by any mechanism)?
    pub fn serves_block_page(self) -> bool {
        matches!(
            self,
            HttpAction::BlockPageRedirect | HttpAction::BlockPageInline
        )
    }
}

/// What a censor does to a TLS flow, keyed on the plaintext SNI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsAction {
    /// Leave it alone.
    None,
    /// Drop the ClientHello: handshake times out.
    Drop,
    /// RST on seeing the blacklisted SNI.
    Rst,
}

impl TlsAction {
    /// Does this action do anything?
    pub fn is_active(self) -> bool {
        !matches!(self, TlsAction::None)
    }
}

/// What a censor does to UDP application flows (messaging/voice/video —
/// the paper's §8 non-web filtering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpAction {
    /// Leave the flow alone.
    None,
    /// Drop datagrams to the service: the app sees silence.
    Drop,
    /// Let a trickle through: the app "works" but is unusable (a common
    /// soft-blocking tactic against VoIP).
    Throttle,
}

impl UdpAction {
    /// Does this action do anything?
    pub fn is_active(self) -> bool {
        !matches!(self, UdpAction::None)
    }
}

/// The summarized blocking mechanism, as recorded in C-Saw's local and
/// global databases ("Stage-k Blocking" fields of Table 3) and counted in
/// the deployment study (Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockingType {
    /// DNS query/response dropped — no resolution at all.
    DnsNoResponse,
    /// DNS forged to another address (local host / block-page server).
    DnsHijack,
    /// Forged NXDOMAIN.
    DnsNxdomain,
    /// SERVFAIL from the resolver.
    DnsServfail,
    /// REFUSED from the resolver.
    DnsRefused,
    /// TCP/IP black-holing (connect timeout).
    IpDrop,
    /// TCP RST injected at connect time.
    IpRst,
    /// HTTP GET silently dropped.
    HttpDrop,
    /// TCP RST injected after the HTTP request.
    HttpRst,
    /// Block page delivered via redirect.
    HttpBlockPageRedirect,
    /// Block page delivered in-band.
    HttpBlockPageInline,
    /// TLS ClientHello dropped on SNI match.
    SniDrop,
    /// TLS RST on SNI match.
    SniRst,
    /// UDP flows to the service dropped (non-web filtering, §8 —
    /// messaging/voice/video apps).
    UdpDrop,
    /// UDP flows throttled to uselessness rather than dropped outright.
    UdpThrottle,
}

impl BlockingType {
    /// The protocol stage this mechanism operates at (Fig. 4's decision
    /// levels; also the key for the paper's multi-stage tracking).
    pub fn stage(self) -> Stage {
        match self {
            BlockingType::DnsNoResponse
            | BlockingType::DnsHijack
            | BlockingType::DnsNxdomain
            | BlockingType::DnsServfail
            | BlockingType::DnsRefused => Stage::Dns,
            BlockingType::IpDrop | BlockingType::IpRst => Stage::Ip,
            BlockingType::HttpDrop
            | BlockingType::HttpRst
            | BlockingType::HttpBlockPageRedirect
            | BlockingType::HttpBlockPageInline => Stage::Http,
            BlockingType::SniDrop | BlockingType::SniRst => Stage::Tls,
            BlockingType::UdpDrop | BlockingType::UdpThrottle => Stage::Udp,
        }
    }

    /// The stable wire/metric name of this mechanism — used as the JSON
    /// encoding in reports and DB snapshots, and as the histogram key
    /// suffix for per-type detection-time metrics.
    pub fn name(self) -> &'static str {
        match self {
            BlockingType::DnsNoResponse => "DnsNoResponse",
            BlockingType::DnsHijack => "DnsHijack",
            BlockingType::DnsNxdomain => "DnsNxdomain",
            BlockingType::DnsServfail => "DnsServfail",
            BlockingType::DnsRefused => "DnsRefused",
            BlockingType::IpDrop => "IpDrop",
            BlockingType::IpRst => "IpRst",
            BlockingType::HttpDrop => "HttpDrop",
            BlockingType::HttpRst => "HttpRst",
            BlockingType::HttpBlockPageRedirect => "HttpBlockPageRedirect",
            BlockingType::HttpBlockPageInline => "HttpBlockPageInline",
            BlockingType::SniDrop => "SniDrop",
            BlockingType::SniRst => "SniRst",
            BlockingType::UdpDrop => "UdpDrop",
            BlockingType::UdpThrottle => "UdpThrottle",
        }
    }

    /// Inverse of [`BlockingType::name`].
    pub fn from_name(s: &str) -> Option<BlockingType> {
        BlockingType::ALL.iter().copied().find(|t| t.name() == s)
    }

    /// The wire code of this mechanism: its index in
    /// [`BlockingType::ALL`] (a `RECORDS` download carries stages this
    /// way).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`BlockingType::code`]; `None` for a byte no variant has.
    pub fn from_code(b: u8) -> Option<BlockingType> {
        BlockingType::ALL.get(usize::from(b)).copied()
    }

    /// All variants, in declaration order, for exhaustive sweeps in tests
    /// and benches. The order is wire-visible ([`BlockingType::code`]):
    /// append new variants, here and in the enum, never insert or reorder.
    pub const ALL: [BlockingType; 15] = [
        BlockingType::DnsNoResponse,
        BlockingType::DnsHijack,
        BlockingType::DnsNxdomain,
        BlockingType::DnsServfail,
        BlockingType::DnsRefused,
        BlockingType::IpDrop,
        BlockingType::IpRst,
        BlockingType::HttpDrop,
        BlockingType::HttpRst,
        BlockingType::HttpBlockPageRedirect,
        BlockingType::HttpBlockPageInline,
        BlockingType::SniDrop,
        BlockingType::SniRst,
        BlockingType::UdpDrop,
        BlockingType::UdpThrottle,
    ];
}

impl fmt::Display for BlockingType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BlockingType::DnsNoResponse => "DNS (no response)",
            BlockingType::DnsHijack => "DNS (hijack)",
            BlockingType::DnsNxdomain => "DNS (NXDOMAIN)",
            BlockingType::DnsServfail => "DNS (SERVFAIL)",
            BlockingType::DnsRefused => "DNS (REFUSED)",
            BlockingType::IpDrop => "TCP/IP (drop)",
            BlockingType::IpRst => "TCP/IP (RST)",
            BlockingType::HttpDrop => "HTTP (drop)",
            BlockingType::HttpRst => "HTTP (RST)",
            BlockingType::HttpBlockPageRedirect => "HTTP (block page, redirect)",
            BlockingType::HttpBlockPageInline => "HTTP (block page, inline)",
            BlockingType::SniDrop => "TLS/SNI (drop)",
            BlockingType::SniRst => "TLS/SNI (RST)",
            BlockingType::UdpDrop => "UDP (drop)",
            BlockingType::UdpThrottle => "UDP (throttle)",
        };
        f.write_str(s)
    }
}

/// The protocol stage at which a mechanism intervenes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Name resolution.
    Dns,
    /// TCP/IP connectivity.
    Ip,
    /// Plaintext HTTP.
    Http,
    /// TLS handshake (SNI).
    Tls,
    /// Non-web UDP application traffic (messaging/voice/video).
    Udp,
}

/// Content categories used by censor policies. The case study (§2.3)
/// groups censored content as YouTube vs. "Rest (Social, Porn,
/// Political, ...)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Video platforms (the paper's YouTube focus).
    Video,
    /// Social networks (Twitter/Instagram in §7.5).
    Social,
    /// Pornography.
    Porn,
    /// Political content.
    Political,
    /// Religious content.
    Religious,
    /// News media.
    News,
    /// Content-delivery infrastructure (§7.4's CDN-blocking finding).
    Cdn,
    /// Anything else.
    Other,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_partition_types() {
        use BlockingType::*;
        assert_eq!(DnsHijack.stage(), Stage::Dns);
        assert_eq!(IpDrop.stage(), Stage::Ip);
        assert_eq!(HttpBlockPageInline.stage(), Stage::Http);
        assert_eq!(SniRst.stage(), Stage::Tls);
        // ALL covers every variant exactly once.
        let mut sorted = BlockingType::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), BlockingType::ALL.len());
    }

    #[test]
    fn activity_flags() {
        assert!(!DnsTamper::None.is_active());
        assert!(DnsTamper::Servfail.is_active());
        assert!(!IpAction::None.is_active());
        assert!(IpAction::Rst.is_active());
        assert!(!HttpAction::None.is_active());
        assert!(HttpAction::Drop.is_active());
        assert!(!TlsAction::None.is_active());
        assert!(TlsAction::Drop.is_active());
    }

    #[test]
    fn block_page_actions() {
        assert!(HttpAction::BlockPageRedirect.serves_block_page());
        assert!(HttpAction::BlockPageInline.serves_block_page());
        assert!(!HttpAction::Drop.serves_block_page());
        assert!(!HttpAction::None.serves_block_page());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(BlockingType::IpDrop.to_string(), "TCP/IP (drop)");
        assert_eq!(BlockingType::DnsServfail.to_string(), "DNS (SERVFAIL)");
    }

    #[test]
    fn wire_names_roundtrip() {
        for t in BlockingType::ALL {
            assert_eq!(BlockingType::from_name(t.name()), Some(t));
        }
        assert_eq!(BlockingType::from_name("NotAMechanism"), None);
    }

    #[test]
    fn wire_codes_are_indices_into_all() {
        for (i, t) in BlockingType::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(t.code()), i);
            assert_eq!(BlockingType::from_code(t.code()), Some(t));
        }
        assert_eq!(BlockingType::from_code(15), None);
        assert_eq!(BlockingType::from_code(u8::MAX), None);
    }
}
