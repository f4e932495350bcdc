//! Fetch outcomes: what a client observes when it tries to load a page.
//!
//! An outcome says *what happened* (a page, or a specific failure
//! signature); `fetch::FetchReport` pairs it with *how long it took* —
//! the two inputs C-Saw's detector (Fig. 4 of the paper) and PLT
//! accounting need.

use csaw_webproto::page::Markup;
use std::fmt;

/// A failure signature as observed by the client. Each variant maps onto
/// a row of the paper's detection flowchart (Fig. 4) / Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// No DNS response at all (query or response dropped).
    DnsNoResponse,
    /// NXDOMAIN received.
    DnsNxdomain,
    /// SERVFAIL received (after the resolver's retry ladder).
    DnsServfail,
    /// REFUSED received.
    DnsRefused,
    /// The resolution pointed into private/reserved space — a recognized
    /// forgery (C-Saw's detector shortcut for DNS hijacking).
    DnsForgedResolution,
    /// TCP connect timed out (SYN black hole).
    ConnectTimeout,
    /// TCP connect was reset.
    ConnectReset,
    /// TLS handshake never completed (ClientHello dropped).
    TlsTimeout,
    /// TLS handshake reset on SNI.
    TlsReset,
    /// HTTP request sent, no response before the GET timeout.
    HttpGetTimeout,
    /// Connection reset after the HTTP request.
    HttpReset,
    /// The transport itself was unavailable (e.g. fronting unsupported by
    /// the destination, or no usable relay).
    TransportUnavailable,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureKind::DnsNoResponse => "DNS_NO_RESPONSE",
            FailureKind::DnsNxdomain => "DNS_NXDOMAIN",
            FailureKind::DnsServfail => "DNS_SERVFAIL",
            FailureKind::DnsRefused => "DNS_REFUSED",
            FailureKind::DnsForgedResolution => "DNS_FORGED_RESOLUTION",
            FailureKind::ConnectTimeout => "TCP_CONNECT_TIMEOUT",
            FailureKind::ConnectReset => "TCP_CONNECT_RESET",
            FailureKind::TlsTimeout => "TLS_TIMEOUT",
            FailureKind::TlsReset => "TLS_RESET",
            FailureKind::HttpGetTimeout => "HTTP_GET_TIMEOUT",
            FailureKind::HttpReset => "HTTP_RESET",
            FailureKind::TransportUnavailable => "TRANSPORT_UNAVAILABLE",
        };
        f.write_str(s)
    }
}

/// A successfully received document (which may still be a block page —
/// the client can't know without the detector).
#[derive(Debug, Clone, PartialEq)]
pub struct PageResult {
    /// Total bytes received (document + resources).
    pub bytes: u64,
    /// Markup of the base document (the detector's phase-1 input). A
    /// genuine page's markup is described, not rendered: its length is
    /// exact without rendering, and it is rendered only when phase 1
    /// reads it, which phase 1 does only for a document short enough to
    /// pass its length gate (the pilot's 14–18 KB documents never are;
    /// see [`Markup`]).
    pub html: Markup,
    /// Ground truth for evaluation: was this actually a block page?
    /// The client-side algorithms never read this field.
    pub truth_block_page: bool,
    /// Was the document reached via an HTTP redirect bounce? (Observable
    /// by the client; block pages often arrive this way.)
    pub redirected: bool,
}

/// What the fetch produced.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchOutcome {
    /// A document was delivered.
    Page(PageResult),
    /// The fetch failed with a specific signature.
    Failed(FailureKind),
}

impl FetchOutcome {
    /// The page result, if any.
    pub fn page(&self) -> Option<&PageResult> {
        match self {
            FetchOutcome::Page(p) => Some(p),
            FetchOutcome::Failed(_) => None,
        }
    }

    /// The failure signature, if any.
    pub fn failure(&self) -> Option<FailureKind> {
        match self {
            FetchOutcome::Failed(k) => Some(*k),
            FetchOutcome::Page(_) => None,
        }
    }

    /// Did we receive the *genuine* page (not a block page)? Ground-truth
    /// helper for experiments.
    pub fn is_genuine_page(&self) -> bool {
        matches!(self, FetchOutcome::Page(p) if !p.truth_block_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let p = FetchOutcome::Page(PageResult {
            bytes: 100,
            html: "<html></html>".into(),
            truth_block_page: false,
            redirected: false,
        });
        assert!(p.page().is_some());
        assert!(p.is_genuine_page());
        assert!(p.failure().is_none());
        let f = FetchOutcome::Failed(FailureKind::ConnectTimeout);
        assert_eq!(f.failure(), Some(FailureKind::ConnectTimeout));
        assert!(f.page().is_none());
    }

    #[test]
    fn block_page_is_not_genuine() {
        let bp = FetchOutcome::Page(PageResult {
            bytes: 1400,
            html: "<html>blocked</html>".into(),
            truth_block_page: true,
            redirected: true,
        });
        assert!(bp.page().is_some());
        assert!(!bp.is_genuine_page());
    }

    #[test]
    fn failure_display_matches_paper_vocabulary() {
        assert_eq!(FailureKind::HttpGetTimeout.to_string(), "HTTP_GET_TIMEOUT");
    }
}
