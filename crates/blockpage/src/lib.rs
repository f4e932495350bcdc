//! # csaw-blockpage — 2-phase block-page detection
//!
//! Implements §4.3.1 of the paper: a fast **phase 1** that classifies the
//! direct-path response alone using the HTML-tag heuristic of Jones et
//! al. (IMC 2014), and a **phase 2** that compares response sizes across
//! the direct and circumvention paths. Phase 1 keeps the common case fast
//! (the page is served without waiting for the redundant copy); phase 2
//! supplies accuracy for the pages phase 1 cannot call.
//!
//! The [`corpus`] module generates a 47-ISP block-page corpus with the
//! stylistic diversity of the citizenlab/ooni collections the paper
//! evaluated against, including portal-style evaders, plus adversarial
//! real pages for the zero-false-positive claim.

//!
//! ```
//! use csaw_blockpage::{phase1_html, phase2, Phase1Config, Phase2Config, Phase1Verdict};
//!
//! let block_page = "<html><body><h1>Access Denied</h1>\
//!                   <p>blocked by court order</p></body></html>";
//! assert_eq!(
//!     phase1_html(block_page, &Phase1Config::default()),
//!     Phase1Verdict::BlockPage
//! );
//! // Phase 2: the 1.4 KB "page" vs the genuine 360 KB one.
//! assert!(phase2(1_400, 360_000, &Phase2Config::default()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classifier;
pub mod corpus;
pub mod features;

pub use classifier::{
    detect, phase1, phase1_html, phase1_markup, phase2, Detection, Phase1Config, Phase1Verdict,
    Phase2Config,
};
pub use corpus::{corpus_47, BlockPageSample, Family};
pub use features::{extract, HtmlFeatures, BLOCK_KEYWORDS};
