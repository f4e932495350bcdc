//! A synthetic corpus of ISP block pages.
//!
//! The paper validates its phase-1 classifier against block pages from 47
//! ISPs collected by citizenlab/ooni, finding ~80% phase-1 detection with
//! zero false positives. Those collections are snapshots of real ISP
//! deployments; this module generates a corpus with the same *structure*:
//! 47 pages across five stylistic families, a fifth of which are
//! deliberately "portal-style" pages that phase 1 cannot distinguish from
//! real content (they are long, tag-rich, and avoid tell-tale wording) —
//! those are the ones phase 2's size comparison must catch.

/// Stylistic family of a block page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Terse legal notice ("this site has been blocked by court order").
    LegalNotice,
    /// Branded filtering-product page ("Surf Safely!").
    Branded,
    /// Tiny wrapper that loads the real block page in an iframe
    /// (ISP-B's mechanism in Table 1).
    IframeWrapper,
    /// Meta-refresh interstitial bouncing to a filter portal.
    MetaRefresh,
    /// Full portal-style page that *looks* like a normal site — long,
    /// styled, link-rich, no blocking keywords. Evades phase 1.
    PortalStyle,
}

/// One corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPageSample {
    /// Which synthetic ISP served it.
    pub isp: String,
    /// Its stylistic family.
    pub family: Family,
    /// The page markup.
    pub html: String,
}

impl BlockPageSample {
    /// Byte size of the page.
    pub fn len(&self) -> usize {
        self.html.len()
    }

    /// True if the page body is empty (never, for generated samples).
    pub fn is_empty(&self) -> bool {
        self.html.is_empty()
    }
}

fn legal_notice(isp: usize) -> String {
    format!(
        "<html><head><title>Site Blocked</title></head><body>\
         <h1>Access Denied</h1>\
         <p>This site has been blocked under the directives of the national \
         telecommunication regulator (ref PTA/{isp}/2017). The content you \
         attempted to access is deemed unlawful or objectionable.</p>\
         <p>For queries contact abuse@isp{isp}.example.</p>\
         </body></html>"
    )
}

fn branded(isp: usize) -> String {
    format!(
        "<html><head><title>Surf Safely</title>\
         <style>body{{background:#003366;color:#fff;font-family:sans-serif}}\
         .card{{margin:80px auto;width:480px;padding:24px;background:#fff;color:#333}}</style>\
         </head><body><div class=\"card\">\
         <img src=\"/logo{isp}.png\" alt=\"SurfSafely\">\
         <h2>Surf Safely!</h2>\
         <p>The website you are trying to access is <b>restricted</b> by your \
         internet service provider in compliance with a ministry order.</p>\
         <p>If you believe this is an error, dial 0800-{isp:04}.</p>\
         </div></body></html>"
    )
}

fn iframe_wrapper(isp: usize) -> String {
    format!(
        "<html><body><iframe src=\"http://block.isp{isp}.example/notice\" \
         width=\"100%\" height=\"100%\" frameborder=\"0\"></iframe></body></html>"
    )
}

fn meta_refresh(isp: usize) -> String {
    format!(
        "<html><head><meta http-equiv=\"refresh\" \
         content=\"0;url=http://filter.isp{isp}.example/denied\">\
         <title>Redirecting</title></head>\
         <body><p>The requested page is not accessible. Redirecting to the \
         filter portal&hellip;</p></body></html>"
    )
}

fn portal_style(isp: usize) -> String {
    // Long, styled, link-rich; no blocking vocabulary anywhere. Mimics
    // ISPs that replace censored content with their own portal/search
    // page. Must evade phase 1 and be caught by phase 2's size check
    // against the (much larger) real page.
    let mut s = String::with_capacity(16_384);
    s.push_str(&format!(
        "<html><head><title>ISP{isp} Home</title>\
         <link rel=\"stylesheet\" href=\"/portal.css\">\
         <script src=\"/portal.js\"></script></head><body><header><nav><ul>"
    ));
    for item in [
        "Home", "Search", "Mail", "News", "Weather", "Sports", "Deals",
    ] {
        s.push_str(&format!(
            "<li><a href=\"/{}\">{}</a></li>",
            item.to_lowercase(),
            item
        ));
    }
    s.push_str("</ul></nav></header><main>");
    for i in 0..30 {
        s.push_str(&format!(
            "<article><h3>Featured story {i}</h3><p>Discover great offers and \
             the latest updates from around the web, curated for you by your \
             service provider's portal team. Stay connected with family and \
             friends, check the forecast, and enjoy premium entertainment \
             packages at special rates.</p>\
             <a href=\"/story/{i}\">Read more</a><img src=\"/thumb{i}.jpg\" alt=\"story\"></article>"
        ));
    }
    s.push_str("</main><footer><p>&copy; ISP portal services</p></footer></body></html>");
    s
}

/// Generate the 47-ISP corpus. Family allocation: 12 legal notices,
/// 10 branded, 8 iframe wrappers, 8 meta-refresh interstitials, and 9
/// portal-style evaders — so 38/47 (~81%) are phase-1-catchable, matching
/// the paper's ~80% phase-1 detection rate by construction of the corpus
/// diversity (not by tuning the classifier to the corpus).
pub fn corpus_47() -> Vec<BlockPageSample> {
    let mut out = Vec::with_capacity(47);
    let plan: [(Family, usize); 5] = [
        (Family::LegalNotice, 12),
        (Family::Branded, 10),
        (Family::IframeWrapper, 8),
        (Family::MetaRefresh, 8),
        (Family::PortalStyle, 9),
    ];
    let mut isp = 0;
    for (family, n) in plan {
        for _ in 0..n {
            isp += 1;
            let html = match family {
                Family::LegalNotice => legal_notice(isp),
                Family::Branded => branded(isp),
                Family::IframeWrapper => iframe_wrapper(isp),
                Family::MetaRefresh => meta_refresh(isp),
                Family::PortalStyle => portal_style(isp),
            };
            out.push(BlockPageSample {
                isp: format!("ISP-{isp:02}"),
                family,
                html,
            });
        }
    }
    debug_assert_eq!(out.len(), 47);
    out
}

/// Generate `n` real (non-block) pages of varying size and character,
/// including adversarial cases for the false-positive claim: small pages,
/// and news articles *about* censorship whose text contains blocking
/// vocabulary but whose structure is page-like.
#[cfg(test)]
pub(crate) fn real_pages(n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let html = match i % 4 {
            // Typical content page.
            0 => csaw_webproto::synth_html(&format!("Site {i}"), 40_000 + (i % 7) * 25_000),
            // Large landing page.
            1 => csaw_webproto::synth_html(&format!("Portal {i}"), 150_000 + (i % 5) * 40_000),
            // Small-but-real page: sparse, no keywords; must not FP.
            2 => format!(
                "<html><head><title>Status {i}</title></head><body>\
                 <h1>Service status</h1><ul>\
                 <li><a href=\"/api\">API: operational</a></li>\
                 <li><a href=\"/web\">Web: operational</a></li>\
                 <li><a href=\"/cdn\">CDN: operational</a></li>\
                 <li><a href=\"/dns\">DNS: operational</a></li>\
                 <li><a href=\"/mail\">Mail: operational</a></li>\
                 <li><a href=\"/push\">Push: operational</a></li>\
                 <li><a href=\"/sms\">SMS: operational</a></li>\
                 <li><a href=\"/voice\">Voice: operational</a></li>\
                 <li><a href=\"/help\">Help center</a></li>\
                 </ul></body></html>"
            ),
            // News article about censorship: keywords present, structure rich.
            _ => {
                let mut s = csaw_webproto::synth_html(&format!("Daily News {i}"), 60_000);
                s.push_str(
                    "<article><h2>Regulator orders ISPs to unblock video site</h2>\
                     <p>Thousands of websites remain blocked nationwide; the \
                     ministry said restricted content lists are under review \
                     after a court order. Users reported pages being censored \
                     or access denied across several providers.</p></article></html>",
                );
                s
            }
        };
        out.push(html);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_47_entries_across_families() {
        let c = corpus_47();
        assert_eq!(c.len(), 47);
        let portal = c.iter().filter(|s| s.family == Family::PortalStyle).count();
        assert_eq!(portal, 9);
        // ISP names unique.
        let names: std::collections::HashSet<&str> = c.iter().map(|s| s.isp.as_str()).collect();
        assert_eq!(names.len(), 47);
    }

    #[test]
    fn portal_pages_are_large_and_linky() {
        for s in corpus_47() {
            if s.family == Family::PortalStyle {
                assert!(s.len() > 8_000, "{} too small: {}", s.isp, s.len());
                assert!(s.html.matches("<a ").count() > 20);
                // And avoid tell-tale vocabulary entirely.
                let lower = s.html.to_ascii_lowercase();
                for k in crate::features::BLOCK_KEYWORDS {
                    assert!(!lower.contains(k), "{} contains {k:?}", s.isp);
                }
            }
        }
    }

    #[test]
    fn simple_block_pages_are_small() {
        for s in corpus_47() {
            if matches!(s.family, Family::LegalNotice | Family::IframeWrapper) {
                assert!(s.len() < 2_000, "{}: {}", s.isp, s.len());
            }
        }
    }

    #[test]
    fn real_pages_varied() {
        let pages = real_pages(16);
        assert_eq!(pages.len(), 16);
        let small = pages.iter().filter(|p| p.len() < 2_000).count();
        let large = pages.iter().filter(|p| p.len() > 100_000).count();
        assert!(small >= 2, "wants small real pages for FP testing");
        assert!(large >= 2);
    }
}
