//! The 2-phase block-page detector (§4.3.1 of the paper).
//!
//! **Phase 1** inspects only the direct-path response, using the HTML-tag
//! heuristic of Jones et al.: block pages are structurally small (short
//! markup, few tags, few links) and either use blocking vocabulary or are
//! bare iframe/meta-refresh shells. If phase 1 says "normal", the page is
//! served to the user immediately — no waiting on the circumvention copy.
//! If phase 1 says "block page", C-Saw proceeds to **phase 2**, comparing
//! the direct response's size against the circumvention path's response;
//! a large deficit confirms the block page.
//!
//! The design goal stated in the paper: phase 1 catches ~80% of block
//! pages with *zero* false positives (a normal page misclassified as a
//! block page costs only extra latency — it is corrected by phase 2 — but
//! the paper still reports none).

use crate::features::{extract, HtmlFeatures};
use csaw_webproto::page::Markup;

/// Phase-1 verdict on a single document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase1Verdict {
    /// Structurally and lexically a block page.
    BlockPage,
    /// Looks like ordinary content.
    Normal,
}

/// Phase-1 thresholds. Defaults were chosen from the structural gap
/// between the block-page corpus and real pages — block pages in the
/// citizenlab/ooni collections are orders of magnitude smaller and
/// sparser than real content.
#[derive(Debug, Clone, Copy)]
pub struct Phase1Config {
    /// Maximum markup length (bytes) for block-page structure.
    pub max_length: usize,
    /// Maximum opening-tag count.
    pub max_tags: usize,
    /// Maximum anchor count.
    pub max_links: usize,
}

impl Default for Phase1Config {
    fn default() -> Self {
        Phase1Config {
            max_length: 6_000,
            max_tags: 60,
            max_links: 8,
        }
    }
}

/// Classify a document's features.
///
/// Verdict is `BlockPage` iff the structure is block-page-like (small,
/// sparse, few links) **and** there is positive evidence (blocking
/// vocabulary, a lone iframe shell, or a meta-refresh interstitial).
/// Requiring both keeps false positives at zero: small real pages carry
/// no evidence, keyword-bearing news articles fail the structure gate.
pub fn phase1(features: &HtmlFeatures, cfg: &Phase1Config) -> Phase1Verdict {
    let sparse = features.length <= cfg.max_length
        && features.tag_count <= cfg.max_tags
        && features.link_count <= cfg.max_links;
    if !sparse {
        return Phase1Verdict::Normal;
    }
    let evidence = features.keyword_hits >= 1 || features.has_iframe || features.has_meta_refresh;
    if evidence {
        Phase1Verdict::BlockPage
    } else {
        Phase1Verdict::Normal
    }
}

/// Extract features and classify in one step — the in-line check of
/// Algorithm 1. A document longer than `cfg.max_length` is `Normal`
/// whatever it contains (that is what [`phase1`] concludes from
/// `features.length`), so it is cleared on its length alone and only
/// block-page-sized markup is ever scanned.
pub fn phase1_html(html: &str, cfg: &Phase1Config) -> Phase1Verdict {
    if html.len() > cfg.max_length {
        return Phase1Verdict::Normal;
    }
    phase1(&extract(html), cfg)
}

/// [`phase1_html`] over a delivered document's [`Markup`]. The length
/// gate reads the markup's length, which a described document knows
/// without being rendered, so one longer than `cfg.max_length` is
/// cleared without ever being rendered; shorter markup is rendered (if
/// described) and scanned.
pub fn phase1_markup(doc: &Markup, cfg: &Phase1Config) -> Phase1Verdict {
    if doc.len() > cfg.max_length {
        return Phase1Verdict::Normal;
    }
    phase1_html(&doc.text(), cfg)
}

/// Phase-2 configuration: the size-comparison test.
#[derive(Debug, Clone, Copy)]
pub struct Phase2Config {
    /// Relative size difference above which the two responses are deemed
    /// different documents: `|direct - circ| / max(direct, circ)`.
    pub max_relative_diff: f64,
}

impl Default for Phase2Config {
    fn default() -> Self {
        Phase2Config {
            max_relative_diff: 0.30,
        }
    }
}

/// Phase 2: does the direct response's size differ from the circumvention
/// response's enough to confirm content manipulation?
///
/// Returns `true` when the direct page is confirmed to be a different
/// (manipulated) document. Small relative differences are expected for
/// the *same* page fetched twice (dynamic content, personalization — the
/// very reason byte-equality is useless here, per §4.3.1).
pub fn phase2(direct_bytes: u64, circumvention_bytes: u64, cfg: &Phase2Config) -> bool {
    let max = direct_bytes.max(circumvention_bytes);
    if max == 0 {
        return false;
    }
    let diff = direct_bytes.abs_diff(circumvention_bytes) as f64 / max as f64;
    diff > cfg.max_relative_diff
}

/// The combined 2-phase detector state machine outcome for one URL fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// Phase 1 cleared the page: serve immediately, no phase 2 needed.
    ServedImmediately,
    /// Phase 1 flagged it and phase 2 confirmed: block page.
    ConfirmedBlockPage,
    /// Phase 1 flagged it but phase 2 disagreed (sizes match): false
    /// positive corrected by waiting for the circumvention copy.
    FalsePositiveCorrected,
}

/// Run both phases given the direct response markup and the sizes of the
/// two responses. `circumvention_bytes = None` models the circumvention
/// copy not having arrived (phase 2 must then wait; callers handle the
/// timing — this function assumes it is available).
pub fn detect(
    direct_html: &str,
    direct_bytes: u64,
    circumvention_bytes: u64,
    p1: &Phase1Config,
    p2: &Phase2Config,
) -> Detection {
    match phase1_html(direct_html, p1) {
        Phase1Verdict::Normal => Detection::ServedImmediately,
        Phase1Verdict::BlockPage => {
            if phase2(direct_bytes, circumvention_bytes, p2) {
                Detection::ConfirmedBlockPage
            } else {
                Detection::FalsePositiveCorrected
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{corpus_47, real_pages, Family};

    /// The headline claim of §4.3.1: ~80% of the 47-ISP corpus is caught
    /// in phase 1.
    #[test]
    fn phase1_catches_about_80_percent_of_corpus() {
        let cfg = Phase1Config::default();
        let corpus = corpus_47();
        let caught = corpus
            .iter()
            .filter(|s| phase1_html(&s.html, &cfg) == Phase1Verdict::BlockPage)
            .count();
        let rate = caught as f64 / corpus.len() as f64;
        assert!(
            (0.75..=0.90).contains(&rate),
            "phase-1 detection rate {rate:.2} ({caught}/47)"
        );
    }

    /// And with *zero* false positives on real pages.
    #[test]
    fn phase1_zero_false_positives() {
        let cfg = Phase1Config::default();
        for (i, page) in real_pages(64).iter().enumerate() {
            assert_eq!(
                phase1_html(page, &cfg),
                Phase1Verdict::Normal,
                "false positive on real page {i}"
            );
        }
    }

    /// Every phase-1-catchable family is actually caught; every
    /// portal-style evader escapes (that's phase 2's job).
    #[test]
    fn phase1_family_expectations() {
        let cfg = Phase1Config::default();
        for s in corpus_47() {
            let got = phase1_html(&s.html, &cfg) == Phase1Verdict::BlockPage;
            assert_eq!(
                got,
                s.family != Family::PortalStyle,
                "{} ({:?}): phase1={}",
                s.isp,
                s.family,
                got
            );
        }
    }

    /// The length gate answers exactly what the full scan would.
    #[test]
    fn length_gate_agrees_with_full_extraction() {
        let cfg = Phase1Config::default();
        let mut docs: Vec<String> = corpus_47().into_iter().map(|s| s.html).collect();
        docs.extend(real_pages(64));
        // Keyword-bearing, link-free documents straddling the threshold:
        // a block page by every feature but, past the gate, its length.
        for len in [cfg.max_length - 1, cfg.max_length, cfg.max_length + 1] {
            let mut html = String::from("<html><body><p>access denied by court order</p>");
            let tail = "</body></html>";
            html.push_str(&"x".repeat(len - html.len() - tail.len()));
            html.push_str(tail);
            assert_eq!(html.len(), len);
            docs.push(html);
        }
        let verdicts: Vec<Phase1Verdict> = docs.iter().map(|h| phase1_html(h, &cfg)).collect();
        for (html, verdict) in docs.iter().zip(&verdicts) {
            assert_eq!(
                *verdict,
                phase1(&extract(html), &cfg),
                "{} byte document",
                html.len()
            );
        }
        let n = verdicts.len();
        assert_eq!(
            verdicts[n - 3..],
            [
                Phase1Verdict::BlockPage,
                Phase1Verdict::BlockPage,
                Phase1Verdict::Normal
            ]
        );

        // The gate reads the config: with a roomier limit the same
        // over-6 KB document is scanned and flagged.
        let roomy = Phase1Config {
            max_length: 100_000,
            ..cfg
        };
        let long = &docs[n - 1];
        assert_eq!(phase1_html(long, &roomy), Phase1Verdict::BlockPage);
        assert_eq!(phase1_html(long, &roomy), phase1(&extract(long), &roomy));
    }

    #[test]
    fn phase2_size_gap_confirms() {
        let cfg = Phase2Config::default();
        // Block page 1.4 KB vs real page 360 KB: confirmed.
        assert!(phase2(1_400, 360_000, &cfg));
        // Same page twice with 10% dynamic variation: not confirmed.
        assert!(!phase2(90_000, 100_000, &cfg));
        // Symmetric: direct larger also counts as manipulation.
        assert!(phase2(360_000, 1_400, &cfg));
        // Degenerate zero sizes.
        assert!(!phase2(0, 0, &cfg));
    }

    #[test]
    fn portal_evaders_caught_by_phase2() {
        let p1 = Phase1Config::default();
        let p2 = Phase2Config::default();
        let real_size = 360_000u64;
        for s in corpus_47() {
            let d = detect(&s.html, s.len() as u64, real_size, &p1, &p2);
            if s.family != Family::PortalStyle {
                assert_eq!(d, Detection::ConfirmedBlockPage, "{}", s.isp);
            } else {
                // Portal pages sail through phase 1 — the redundant-copy
                // refresh correction (§4.3.1) handles them; detect() on the
                // *served* page reports ServedImmediately.
                assert_eq!(d, Detection::ServedImmediately, "{}", s.isp);
            }
        }
    }

    #[test]
    fn false_positive_would_be_corrected() {
        // Force a phase-1 positive with a synthetic small keyworded page
        // that is actually the true content (sizes match on both paths).
        let html = "<html><body><p>court order archive index</p></body></html>";
        let d = detect(
            html,
            html.len() as u64,
            html.len() as u64,
            &Phase1Config::default(),
            &Phase2Config::default(),
        );
        assert_eq!(d, Detection::FalsePositiveCorrected);
    }
}
