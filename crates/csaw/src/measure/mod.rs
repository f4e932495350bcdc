//! The measurement module (§4.3.1): the Fig. 4 detector and the
//! redundant-request machinery that Algorithm 1 drives.

pub mod detect;
pub mod nonweb;
pub mod redundancy;

pub use detect::{
    classify_page, failure_to_blocking, measure_direct, DirectMeasurement, MeasuredStatus,
};
pub use nonweb::{measure_udp_service, UdpMeasurement};
pub use redundancy::{fetch_with_redundancy, RedundantOutcome, ServedFrom};
