//! Page synthesis ↔ its specification.
//!
//! `synth_html` writes a genuine page's markup and `WebPage::synthetic`
//! splits a page into a document and its resources; both feed every
//! experiment's output, so what they produce is part of the determinism
//! contract. The two functions below are their original implementations,
//! kept verbatim as the specification: a rewrite for speed must produce
//! byte-identical markup and equal pages over the grid here, and a
//! described document (`Markup::synthetic`) must agree with the markup it
//! describes on length, `Debug` and `==` without being rendered first.
//!
//! The grid leaves out one input on purpose: a page URL with an explicit
//! port. The original passed no port to its resources, which was a bug;
//! the unit test `resources_keep_the_pages_explicit_port` pins the fix.

use csaw_webproto::page::{synth_html, Markup, Resource, WebPage};
use csaw_webproto::url::Url;

/// The original `synth_html`'s paragraph (a local there).
const SPEC_PARAGRAPH: &str =
    "<article><h2>Section heading</h2><p>Lorem ipsum dolor sit amet, consectetur \
                adipiscing elit, sed do eiusmod tempor incididunt ut labore et dolore magna \
                aliqua. Ut enim ad minim veniam, quis nostrud exercitation ullamco laboris \
                nisi ut aliquip ex ea commodo consequat.</p><img src=\"/assets/photo.jpg\" \
                alt=\"photo\"><ul><li>point one</li><li>point two</li></ul></article>\n";

/// The original `synth_html`.
fn spec_synth_html(title: &str, approx_bytes: usize) -> String {
    let mut out = String::with_capacity(approx_bytes + 512);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n");
    out.push_str(&format!("<title>{title}</title>\n"));
    out.push_str("<meta charset=\"utf-8\">\n");
    out.push_str("<link rel=\"stylesheet\" href=\"/assets/site.css\">\n");
    out.push_str("<script src=\"/assets/app.js\" defer></script>\n");
    out.push_str("</head>\n<body>\n<header><nav><ul>");
    for item in ["Home", "News", "Videos", "About", "Contact"] {
        out.push_str(&format!(
            "<li><a href=\"/{}\">{}</a></li>",
            item.to_lowercase(),
            item
        ));
    }
    out.push_str("</ul></nav></header>\n<main>\n");
    let para = SPEC_PARAGRAPH;
    while out.len() + para.len() + 64 < approx_bytes {
        out.push_str(para);
    }
    out.push_str("</main>\n<footer><p>&copy; 2018 Example Site</p></footer>\n</body>\n</html>\n");
    out
}

fn spec_ensure_dir(path: &str) -> String {
    if path.ends_with('/') {
        path.to_string()
    } else {
        match path.rfind('/') {
            Some(i) => path[..=i].to_string(),
            None => "/".to_string(),
        }
    }
}

/// The original `WebPage::synthetic`.
fn spec_synthetic(url: Url, total_bytes: u64, n_resources: usize) -> WebPage {
    if n_resources == 0 {
        return WebPage::simple(url, total_bytes);
    }
    let html_bytes = (total_bytes / 5).max(2_048).min(total_bytes);
    let remaining = total_bytes - html_bytes;
    let each = remaining / n_resources as u64;
    let mut resources = Vec::with_capacity(n_resources);
    let base = url.clone();
    for i in 0..n_resources {
        let wobble = (each / 4).min(each);
        let bytes = if i % 2 == 0 {
            each + wobble * (i as u64 % 3) / 2
        } else {
            each.saturating_sub(wobble * (i as u64 % 3) / 2)
        }
        .max(256);
        let res_url = Url::from_parts(
            base.scheme(),
            base.host().clone(),
            None,
            &format!("{}assets/r{i}.bin", spec_ensure_dir(base.path())),
            None,
        );
        resources.push(Resource {
            url: res_url,
            bytes,
        });
    }
    WebPage {
        url,
        html_bytes,
        resources,
    }
}

const TITLES: [&str; 5] = [
    "",
    "x",
    "news.example",
    "blocked-417.example",
    "a-rather-long-title-for-a-synthetic-site.example.co.uk",
];

/// Every size from 0 to 70,000 in steps of 97, plus each size at which
/// the paragraph count changes for `title`, and its two neighbours.
fn sizes(title: &str) -> Vec<usize> {
    let mut out: Vec<usize> = (0..=70_000).step_by(97).collect();
    let head = spec_synth_html(title, 0).find("<main>\n").unwrap() + "<main>\n".len();
    // Paragraph k is written once the size exceeds head + k·P + 64.
    let mut boundary = head + SPEC_PARAGRAPH.len() + 65;
    while boundary <= 70_000 {
        out.extend([boundary - 1, boundary, boundary + 1]);
        boundary += SPEC_PARAGRAPH.len();
    }
    out
}

#[test]
fn synth_html_writes_what_the_specification_wrote() {
    let mut checked = 0;
    for title in TITLES {
        for size in sizes(title) {
            let want = spec_synth_html(title, size);
            let got = synth_html(title, size);
            assert!(got == want, "{title:?} at {size}: markup differs");
            let described = Markup::synthetic(title.into(), size);
            assert_eq!(described.len(), want.len(), "{title:?} at {size}: len");
            assert!(
                described == Markup::from(want.as_str()),
                "{title:?} at {size}: =="
            );
            assert!(
                Markup::from(want.as_str()) == described,
                "{title:?} at {size}: =="
            );
            assert!(described.text() == want, "{title:?} at {size}: text");
            assert!(
                format!("{described:?}") == format!("{want:?}"),
                "{title:?} at {size}: Debug"
            );
            checked += 1;
        }
    }
    assert!(checked > 5 * 722, "only {checked} cases");
}

#[test]
fn described_documents_are_equal_exactly_when_their_markup_is() {
    let a = Markup::synthetic("news.example".into(), 18_000);
    for (title, size) in [
        ("news.example", 18_001),
        ("news.example", 30_000),
        ("news.examplf", 18_000),
        ("", 18_000),
    ] {
        let b = Markup::synthetic(title.into(), size);
        let same = a.text() == b.text();
        assert_eq!(a == b, same, "{title:?} at {size}");
        assert_eq!(
            a == Markup::from(b.text().as_ref()),
            same,
            "{title:?} at {size}"
        );
    }
}

#[test]
fn synthetic_pages_equal_the_specifications() {
    let pages = [
        "http://x.com/",
        "https://x.com/",
        "http://x.com/a/b/c",
        "http://x.com/a/./b/../c",
        "http://x.com//a//b",
        "http://x.com/watch?v=1",
        "http://x.com/videos/",
        "http://x.com/videos/watch?v=1&t=2",
        "http://10.0.0.1/p/q",
    ];
    let totals = [0, 1, 2_047, 2_048, 2_049, 10_000, 70_000, 90_000, 360_000];
    let counts = [0, 1, 2, 3, 4, 5, 8, 20];
    for page in pages {
        let url = Url::parse(page).unwrap();
        for total in totals {
            for n in counts {
                assert_eq!(
                    WebPage::synthetic(url.clone(), total, n),
                    spec_synthetic(url.clone(), total, n),
                    "{page} with {total} bytes over {n} resources"
                );
            }
        }
    }
}
