//! HTML features for block-page classification.
//!
//! Following Jones et al. (IMC 2014), which the paper's §4.3.1 cites for
//! its phase-1 heuristic, the discriminating signal is structural: block
//! pages are short, tag-sparse documents with few outbound links and
//! characteristic wording, while real pages are long, link-rich and
//! tag-dense. These features are cheap to extract from the first response
//! — no second fetch needed — which is what makes phase 1 fast.

/// Structural and lexical features of an HTML document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtmlFeatures {
    /// Total byte length of the markup.
    pub length: usize,
    /// Number of opening tags.
    pub tag_count: usize,
    /// Number of anchor (`<a`) tags — block pages rarely link anywhere.
    pub link_count: usize,
    /// Number of distinct block-page keywords found (case-insensitive).
    pub keyword_hits: usize,
    /// Whether an `<iframe` is present (ISP-B serves its block page via
    /// iframe, per Table 1).
    pub has_iframe: bool,
    /// Whether a `<meta http-equiv="refresh"` redirect is present.
    pub has_meta_refresh: bool,
}

/// Wording that betrays a block page. Drawn from the phrasing observed in
/// the citizenlab/ooni block-page collections the paper used: legal
/// notices, "surf safely" branding, access-denied boilerplate.
pub const BLOCK_KEYWORDS: &[&str] = &[
    "blocked",
    "denied",
    "prohibited",
    "restricted",
    "forbidden",
    "not accessible",
    "unacceptable",
    "censored",
    "surf safely",
    "pta",
    "ministry",
    "regulator",
    "court order",
    "objectionable",
    "unlawful",
    "this site can not be opened",
    "access to this site",
];

/// Extract features from markup.
pub fn extract(html: &str) -> HtmlFeatures {
    let lower = html.to_ascii_lowercase();
    let tag_count = count_tags(&lower);
    let link_count = lower.matches("<a ").count() + lower.matches("<a>").count();
    let keyword_hits = BLOCK_KEYWORDS.iter().filter(|k| lower.contains(*k)).count();
    HtmlFeatures {
        length: html.len(),
        tag_count,
        link_count,
        keyword_hits,
        has_iframe: lower.contains("<iframe"),
        has_meta_refresh: lower.contains("http-equiv=\"refresh\"")
            || lower.contains("http-equiv='refresh'"),
    }
}

/// Count opening tags: `<` followed by an ASCII letter.
fn count_tags(lower: &str) -> usize {
    let b = lower.as_bytes();
    let mut n = 0;
    for i in 0..b.len().saturating_sub(1) {
        if b[i] == b'<' && b[i + 1].is_ascii_lowercase() {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_tags_not_closers() {
        let f = extract("<html><body><p>x</p></body></html>");
        assert_eq!(f.tag_count, 3, "closing tags don't count");
    }

    #[test]
    fn keyword_hits_case_insensitive() {
        let f = extract("<html><body>Access DENIED by court ORDER</body></html>");
        assert!(f.keyword_hits >= 2, "hits {}", f.keyword_hits);
    }

    #[test]
    fn links_count_anchors_not_link_tags() {
        let f = extract(
            r#"<html><head><link rel="x"><script src="a.js"></script></head>
               <body><a href="/1">one</a><a href="/2">two</a><img src="p.jpg"></body></html>"#,
        );
        assert_eq!(f.link_count, 2);
    }

    #[test]
    fn iframe_and_meta_refresh_flags() {
        let f = extract(r#"<html><body><iframe src="http://block.isp/"></iframe></body></html>"#);
        assert!(f.has_iframe);
        let g =
            extract(r#"<html><head><meta http-equiv="refresh" content="0;url=x"></head></html>"#);
        assert!(g.has_meta_refresh);
        let h = extract("<html><body>plain</body></html>");
        assert!(!h.has_iframe && !h.has_meta_refresh);
    }

    #[test]
    fn real_page_is_feature_rich() {
        let html = csaw_webproto::synth_html("A News Site", 60_000);
        let f = extract(&html);
        assert!(f.tag_count > 100);
        assert!(f.link_count >= 5);
        assert!(f.length > 50_000);
    }
}
