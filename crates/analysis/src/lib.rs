//! # helios-analysis
//!
//! Trace characterization for the Helios SC'21 reproduction: every
//! statistic behind §3's figures — empirical CDFs (Figs. 1, 5, 6, 8, 9),
//! daily/monthly cluster patterns (Figs. 2–3), per-VC behaviors (Fig. 4),
//! final-status breakdowns (Figs. 1b, 7) and the Table 2 summary.
//!
//! Every per-trace statistic comes from one traversal, [`characterize`];
//! [`pool`] combines several traces' results for the figures the paper
//! reports across clusters.
//!
//! ```
//! use helios_trace::{generate, venus_profile, GeneratorConfig};
//! use helios_analysis::{characterize, pool};
//!
//! let trace = generate(&venus_profile(), &GeneratorConfig { scale: 0.02, seed: 1 })?;
//! let f = characterize(&trace);
//! assert!(f.gpu_duration_cdf().median() > 0.0);
//! assert_eq!(pool(&[&f]).summary, f.summary);
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

pub mod cdf;
pub mod clusters;
pub mod fused;
pub mod jobs;
pub mod quantiles;
pub mod report;
pub mod timeseries;
pub mod users;
pub mod vc;

pub use cdf::{Cdf, CdfView, WeightedCdf};
pub use fused::{characterize, pool, FusedCharacterization, PooledCharacterization};
pub use quantiles::BoxStats;
pub use timeseries::BinnedSeries;
