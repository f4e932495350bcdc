//! The web page model.
//!
//! A page is a base HTML document plus embedded resources (scripts,
//! stylesheets, images), possibly served from other hosts (CDNs — whose
//! blocking the paper's pilot study uncovered, §7.4). Page load time is
//! defined as the time from the navigation request until the last byte of
//! the last resource, with the browser fetching resources over a limited
//! number of parallel connections; the fetch logic itself lives in
//! `csaw-circumvent`, this module only describes structure and sizes.

use crate::url::Url;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// One embedded resource of a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// Where the resource lives (may be a different host, e.g. a CDN).
    pub url: Url,
    /// Size in bytes.
    pub bytes: u64,
}

/// A web page: base document plus embedded resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebPage {
    /// The page URL.
    pub url: Url,
    /// Size of the base HTML document in bytes.
    pub html_bytes: u64,
    /// Embedded resources in document order.
    pub resources: Vec<Resource>,
}

impl WebPage {
    /// A synthetic page of roughly `total_bytes`, split into a base
    /// document and `n_resources` same-host resources. The split is
    /// deterministic: the base document takes ~20% (at least 2 KB), the
    /// rest is spread evenly with a deterministic ±25% zig-zag so resource
    /// sizes aren't all identical. Resource `i` lives at
    /// `assets/r<i>.bin` in the page's directory, on the page's scheme,
    /// host and port.
    pub fn synthetic(url: Url, total_bytes: u64, n_resources: usize) -> WebPage {
        let (html_bytes, each) = synthetic_split(total_bytes, n_resources);
        let resources = (0..n_resources)
            .map(|i| Resource {
                url: url.in_dir(format_args!("assets/r{i}.bin")),
                bytes: synthetic_resource_bytes(each, i),
            })
            .collect();
        WebPage {
            url,
            html_bytes,
            resources,
        }
    }

    /// Total bytes across the document and all resources.
    pub fn total_bytes(&self) -> u64 {
        self.html_bytes + self.resources.iter().map(|r| r.bytes).sum::<u64>()
    }

    /// Number of embedded resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }
}

/// The base document's size and each resource's base share for a
/// synthetic page (see [`WebPage::synthetic`]).
fn synthetic_split(total_bytes: u64, n_resources: usize) -> (u64, u64) {
    if n_resources == 0 {
        return (total_bytes, 0);
    }
    let html_bytes = (total_bytes / 5).max(2_048).min(total_bytes);
    (html_bytes, (total_bytes - html_bytes) / n_resources as u64)
}

/// Resource `i`'s size: the base share `each` with the zig-zag applied.
fn synthetic_resource_bytes(each: u64, i: usize) -> u64 {
    let wobble = (each / 4).min(each);
    if i.is_multiple_of(2) {
        each + wobble * (i as u64 % 3) / 2
    } else {
        each.saturating_sub(wobble * (i as u64 % 3) / 2)
    }
    .max(256)
}

/// A page's byte counts without its URLs — all a relay needs, since it
/// tunnels every exchange to the same exit.
#[derive(Debug, Clone, Copy)]
pub enum PageSizes<'a> {
    /// A page held in full.
    Listed(&'a WebPage),
    /// The page [`WebPage::synthetic`] builds from these arguments.
    Synthetic {
        /// Its `total_bytes`.
        total_bytes: u64,
        /// Its `n_resources`.
        n_resources: usize,
    },
}

impl PageSizes<'_> {
    /// Size of the base document.
    pub fn html_bytes(&self) -> u64 {
        match *self {
            PageSizes::Listed(page) => page.html_bytes,
            PageSizes::Synthetic {
                total_bytes,
                n_resources,
            } => synthetic_split(total_bytes, n_resources).0,
        }
    }

    /// Each resource's size, in document order.
    pub fn resource_bytes(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        let (n, each) = match *self {
            PageSizes::Listed(page) => (page.resources.len(), 0),
            PageSizes::Synthetic {
                total_bytes,
                n_resources,
            } => (n_resources, synthetic_split(total_bytes, n_resources).1),
        };
        (0..n).map(move |i| match self {
            PageSizes::Listed(page) => page.resources[i].bytes,
            PageSizes::Synthetic { .. } => synthetic_resource_bytes(each, i),
        })
    }
}

/// Everything [`synth_html`] writes before the paragraphs, around the
/// title.
const HEAD: &str = "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<title>";
const AFTER_TITLE: &str = "</title>\n\
<meta charset=\"utf-8\">\n\
<link rel=\"stylesheet\" href=\"/assets/site.css\">\n\
<script src=\"/assets/app.js\" defer></script>\n\
</head>\n<body>\n<header><nav><ul>\
<li><a href=\"/home\">Home</a></li>\
<li><a href=\"/news\">News</a></li>\
<li><a href=\"/videos\">Videos</a></li>\
<li><a href=\"/about\">About</a></li>\
<li><a href=\"/contact\">Contact</a></li>\
</ul></nav></header>\n<main>\n";
/// The body is this paragraph, repeated to size.
const PARAGRAPH: &str =
    "<article><h2>Section heading</h2><p>Lorem ipsum dolor sit amet, consectetur \
    adipiscing elit, sed do eiusmod tempor incididunt ut labore et dolore magna \
    aliqua. Ut enim ad minim veniam, quis nostrud exercitation ullamco laboris \
    nisi ut aliquip ex ea commodo consequat.</p><img src=\"/assets/photo.jpg\" \
    alt=\"photo\"><ul><li>point one</li><li>point two</li></ul></article>\n";
const TAIL: &str = "</main>\n<footer><p>&copy; 2018 Example Site</p></footer>\n</body>\n</html>\n";

/// How many paragraphs [`synth_html`] writes: while the markup so far, one
/// more paragraph and 64 bytes of slack stay under `approx_bytes`.
fn synth_paragraphs(title: &str, approx_bytes: usize) -> usize {
    let head = HEAD.len() + title.len() + AFTER_TITLE.len();
    approx_bytes
        .saturating_sub(head + PARAGRAPH.len() + 64)
        .div_ceil(PARAGRAPH.len())
}

/// Exactly `synth_html(title, approx_bytes).len()`, without rendering.
fn synth_html_len(title: &str, approx_bytes: usize) -> usize {
    HEAD.len()
        + title.len()
        + AFTER_TITLE.len()
        + synth_paragraphs(title, approx_bytes) * PARAGRAPH.len()
        + TAIL.len()
}

/// Generate plausible HTML markup of approximately `approx_bytes` for a
/// page titled `title`. Used as the "real page" sample that the phase-1
/// block-page classifier must *not* flag (its false-positive rate is a
/// headline claim of §4.3.1).
pub fn synth_html(title: &str, approx_bytes: usize) -> String {
    let mut out = String::with_capacity(synth_html_len(title, approx_bytes));
    out.push_str(HEAD);
    out.push_str(title);
    out.push_str(AFTER_TITLE);
    for _ in 0..synth_paragraphs(title, approx_bytes) {
        out.push_str(PARAGRAPH);
    }
    out.push_str(TAIL);
    out
}

/// The markup of a delivered document — what the block-page detector's
/// phase 1 reads.
///
/// A block page or an error page is held as text. A genuine page's
/// markup is what [`synth_html`] writes for its site, and it is
/// *described* (the title and size `synth_html` takes), not rendered:
/// [`Markup::len`] is exact without rendering, and the text is rendered
/// only when someone reads it through [`Markup::text`]. Phase 1 reads a
/// document only once it has passed phase 1's length gate, so a
/// synthetic document longer than that gate is never rendered at all.
/// `Debug` and `==` agree with the rendered `String`'s.
#[derive(Clone, Default)]
pub struct Markup(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Text(Arc<str>),
    /// `synth_html(title, approx_bytes)`.
    Synthetic(Arc<str>, usize),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Static("")
    }
}

impl Markup {
    /// The markup `synth_html(title, approx_bytes)` returns, described.
    pub fn synthetic(title: Arc<str>, approx_bytes: usize) -> Markup {
        Markup(Repr::Synthetic(title, approx_bytes))
    }

    /// Markup fixed at compile time.
    pub const fn from_static(text: &'static str) -> Markup {
        Markup(Repr::Static(text))
    }

    /// Length of the markup in bytes; never renders.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Static(s) => s.len(),
            Repr::Text(s) => s.len(),
            Repr::Synthetic(title, approx_bytes) => synth_html_len(title, *approx_bytes),
        }
    }

    /// Whether the markup is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The markup itself, rendered here if it is described.
    pub fn text(&self) -> Cow<'_, str> {
        match &self.0 {
            Repr::Static(s) => Cow::Borrowed(s),
            Repr::Text(s) => Cow::Borrowed(s),
            Repr::Synthetic(title, approx_bytes) => Cow::Owned(synth_html(title, *approx_bytes)),
        }
    }
}

impl From<Arc<str>> for Markup {
    fn from(text: Arc<str>) -> Markup {
        Markup(Repr::Text(text))
    }
}

impl From<&str> for Markup {
    fn from(text: &str) -> Markup {
        Markup(Repr::Text(text.into()))
    }
}

impl fmt::Debug for Markup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text(), f)
    }
}

impl PartialEq for Markup {
    fn eq(&self, other: &Markup) -> bool {
        self.len() == other.len() && self.text() == other.text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn synthetic_page_size_approx() {
        let p = WebPage::synthetic(url("http://yt.example/"), 360_000, 20);
        let total = p.total_bytes();
        // Within 20% of the target (deterministic wobble means not exact).
        assert!((total as i64 - 360_000i64).abs() < 72_000, "total {total}");
        assert_eq!(p.resource_count(), 20);
        // All resources on the same host as the page.
        assert!(p.resources.iter().all(|r| r.url.host() == p.url.host()));
    }

    #[test]
    fn synthetic_zero_resources() {
        let p = WebPage::synthetic(url("http://x.com/a"), 10_000, 0);
        assert_eq!(p.total_bytes(), 10_000);
        assert!(p.resources.is_empty());
    }

    #[test]
    fn synth_html_size_and_shape() {
        let html = synth_html("Example Site", 95_000);
        assert!(
            html.len() >= 90_000 && html.len() <= 100_000,
            "{}",
            html.len()
        );
        assert!(html.contains("<title>Example Site</title>"));
        assert!(html.contains("</html>"));
        // Rich markup: far more than a block page's handful of tags.
        let tags = html.matches('<').count();
        assert!(tags > 100, "tags {tags}");
    }

    #[test]
    fn resource_sizes_vary_but_positive() {
        let p = WebPage::synthetic(url("http://x.com/"), 300_000, 12);
        assert!(p.resources.iter().all(|r| r.bytes >= 256));
        let distinct: std::collections::HashSet<u64> =
            p.resources.iter().map(|r| r.bytes).collect();
        assert!(distinct.len() > 1, "sizes should not be uniform");
    }

    #[test]
    fn resources_keep_the_pages_explicit_port() {
        let p = WebPage::synthetic(url("http://x.com:8080/videos/watch"), 100_000, 3);
        for r in &p.resources {
            assert_eq!(r.url.port(), 8080, "{}", r.url);
        }
        assert_eq!(
            p.resources[2].url.to_string(),
            "http://x.com:8080/videos/assets/r2.bin"
        );
    }

    #[test]
    fn page_sizes_match_the_page() {
        let page = WebPage::synthetic(url("http://x.com/a"), 90_000, 5);
        let described = PageSizes::Synthetic {
            total_bytes: 90_000,
            n_resources: 5,
        };
        for sizes in [described, PageSizes::Listed(&page)] {
            assert_eq!(sizes.html_bytes(), page.html_bytes);
            let bytes: Vec<u64> = sizes.resource_bytes().collect();
            let want: Vec<u64> = page.resources.iter().map(|r| r.bytes).collect();
            assert_eq!(bytes, want);
        }
        let bare = PageSizes::Synthetic {
            total_bytes: 7_000,
            n_resources: 0,
        };
        assert_eq!(bare.html_bytes(), 7_000);
        assert_eq!(bare.resource_bytes().count(), 0);
    }

    #[test]
    fn markup_is_rendered_only_when_read() {
        let described = Markup::synthetic("news.example".into(), 18_000);
        let rendered = synth_html("news.example", 18_000);
        assert_eq!(described.len(), rendered.len());
        assert_eq!(described.text(), rendered);
        assert_eq!(described, Markup::from(rendered.as_str()));
        assert_eq!(format!("{described:?}"), format!("{rendered:?}"));
        assert_ne!(described, Markup::synthetic("news.example".into(), 30_000));
        assert!(Markup::default().is_empty());
        assert_eq!(Markup::from_static("<p>x</p>"), Markup::from("<p>x</p>"));
    }

    #[test]
    fn resource_paths_under_page_dir() {
        let p = WebPage::synthetic(url("http://x.com/videos/watch"), 100_000, 3);
        for r in &p.resources {
            assert!(r.url.path().starts_with("/videos/assets/"), "{}", r.url);
        }
    }
}
