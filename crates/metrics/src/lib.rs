//! # windserve-metrics
//!
//! Measurement machinery for the WindServe reproduction:
//!
//! * [`Percentiles`] — nearest-rank quantiles (TTFT P50/P99, TPOT
//!   P90/P99 as in the paper's §5.1);
//! * [`RequestRecord`] — per-request stage timestamps and derived TTFT /
//!   TPOT / queueing delays;
//! * [`SloSpec`] / [`SloAttainment`] — Table 4 objectives and the
//!   "meets both" attainment rate;
//! * [`Utilization`] — mean tensor-core / memory-bandwidth utilization
//!   (Fig. 2);
//! * [`LatencySummary`] — everything a run report needs.
//!
//! # Examples
//!
//! ```
//! use windserve_metrics::Percentiles;
//!
//! let lat = vec![0.08, 0.09, 0.11, 0.32, 0.07];
//! let p = Percentiles::of(lat);
//! assert_eq!(p.p99, 0.32);
//! assert_eq!(p.p50, 0.09);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod outcome;
mod percentile;
mod record;
mod series;
mod slo;
mod summary;
mod util;

pub use error::{Error, Result};
pub use outcome::{DropReason, DroppedRequest};
pub use percentile::Percentiles;
pub use record::{PrefillSite, RequestRecord};
pub use series::{InstanceSeries, Series};
pub use slo::{SloAttainment, SloSpec};
pub use summary::LatencySummary;
pub use util::Utilization;
