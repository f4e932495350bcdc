//! DNS message model.
//!
//! Only the parts a censorship measurement system interacts with: A-record
//! responses with answers or error rcodes, and the tampering
//! outcomes a censor can produce (no response at all, a forged answer
//! pointing at a local host or block-page server, NXDOMAIN, SERVFAIL,
//! REFUSED — the taxonomy of §2.1 and Figure 2 of the paper).

use std::fmt;
use std::net::Ipv4Addr;

/// DNS response codes relevant to the blocking taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// Successful resolution.
    NoError,
    /// The name does not exist (or the censor claims so).
    NxDomain,
    /// The resolver failed — the paper's "Server Failure" blocking
    /// signature, which only surfaces after a long resolver retry ladder.
    ServFail,
    /// The resolver refused the query — the paper's "Server Refused"
    /// signature, which surfaces in a single RTT.
    Refused,
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rcode::NoError => "NOERROR",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::ServFail => "SERVFAIL",
            Rcode::Refused => "REFUSED",
        };
        f.write_str(s)
    }
}

/// An A record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ARecord {
    /// The resolved address.
    pub addr: Ipv4Addr,
    /// Time-to-live in seconds (retained for realism; the simulation's
    /// caching decisions live in the C-Saw client, not here).
    pub ttl: u32,
}

/// A DNS response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsResponse {
    /// Response code.
    pub rcode: Rcode,
    /// A records (empty unless `rcode` is `NoError`).
    pub answers: Vec<ARecord>,
}

impl DnsResponse {
    /// A successful response with one answer.
    pub fn answer(addr: Ipv4Addr) -> DnsResponse {
        DnsResponse {
            rcode: Rcode::NoError,
            answers: vec![ARecord { addr, ttl: 300 }],
        }
    }

    /// An error response with the given rcode (no answers).
    pub fn error(rcode: Rcode) -> DnsResponse {
        debug_assert!(rcode != Rcode::NoError);
        DnsResponse {
            rcode,
            answers: Vec::new(),
        }
    }

    /// First resolved address, if any.
    pub fn first_addr(&self) -> Option<Ipv4Addr> {
        self.answers.first().map(|a| a.addr)
    }

    /// True if the response successfully resolved at least one address.
    pub fn is_resolution(&self) -> bool {
        self.rcode == Rcode::NoError && !self.answers.is_empty()
    }
}

/// What the client *observes* from a DNS lookup attempt, including the
/// cases where nothing comes back. This is the detector's raw input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsObservation {
    /// A response arrived (possibly forged; the observer can't tell yet).
    Response(DnsResponse),
    /// No response before the stub resolver gave up.
    NoResponse,
}

impl DnsObservation {
    /// The resolved address if the observation is a successful resolution.
    pub fn resolved_addr(&self) -> Option<Ipv4Addr> {
        match self {
            DnsObservation::Response(r) => r.first_addr(),
            DnsObservation::NoResponse => None,
        }
    }
}

/// Well-known address blocks the detector uses to recognize obviously
/// forged resolutions (the paper's ISP-B resolved YouTube "to a local
/// host"; ONI's `DNS Redir` category includes redirects to private IPs).
pub fn is_private_or_reserved(ip: Ipv4Addr) -> bool {
    let o = ip.octets();
    ip.is_private()
        || ip.is_loopback()
        || ip.is_unspecified()
        || ip.is_link_local()
        || o[0] == 100 && (64..=127).contains(&o[1]) // CGNAT 100.64/10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_and_error_shapes() {
        let ok = DnsResponse::answer("1.2.3.4".parse().unwrap());
        assert!(ok.is_resolution());
        assert_eq!(ok.first_addr(), Some("1.2.3.4".parse().unwrap()));
        let err = DnsResponse::error(Rcode::ServFail);
        assert!(!err.is_resolution());
        assert_eq!(err.first_addr(), None);
    }

    #[test]
    fn observation_addr_extraction() {
        let obs = DnsObservation::Response(DnsResponse::answer("8.8.8.8".parse().unwrap()));
        assert_eq!(obs.resolved_addr(), Some("8.8.8.8".parse().unwrap()));
        assert_eq!(DnsObservation::NoResponse.resolved_addr(), None);
        let nx = DnsObservation::Response(DnsResponse::error(Rcode::NxDomain));
        assert_eq!(nx.resolved_addr(), None);
    }

    #[test]
    fn private_reserved_detection() {
        let yes = [
            "10.0.0.1",
            "192.168.1.1",
            "127.0.0.1",
            "0.0.0.0",
            "169.254.1.1",
            "100.64.0.1",
            "172.16.5.5",
        ];
        for ip in yes {
            assert!(is_private_or_reserved(ip.parse().unwrap()), "{ip}");
        }
        let no = ["8.8.8.8", "93.184.216.34", "100.128.0.1", "172.32.0.1"];
        for ip in no {
            assert!(!is_private_or_reserved(ip.parse().unwrap()), "{ip}");
        }
    }

    #[test]
    fn rcode_display() {
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
        assert_eq!(Rcode::ServFail.to_string(), "SERVFAIL");
    }
}
