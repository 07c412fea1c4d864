//! # helios-core
//!
//! The paper's primary contribution: a prediction-based GPU-cluster
//! management framework (§4, Fig. 10). Its two services reproduce the
//! paper's case studies; callers train them on trace history and apply
//! their predictions directly:
//!
//! * [`QssfService`] — Quasi-Shortest-Service-First scheduling
//!   (Algorithm 1): GBDT + rolling-history GPU-time prediction feeding the
//!   `helios-sim` Priority policy;
//! * [`CesService`] — Cluster Energy Saving (Algorithm 2): GBDT node-demand
//!   forecasting feeding the `helios-energy` DRS control loop.
//!
//! ```
//! use helios_core::{QssfConfig, QssfService};
//! use helios_trace::{generate, venus_profile, GeneratorConfig};
//!
//! let trace = generate(&venus_profile(), &GeneratorConfig { scale: 0.02, seed: 1 })?;
//! let mut qssf = QssfService::new(QssfConfig::default());
//! // Train on the first four months; an empty window would be an error.
//! qssf.train(&trace, 0, trace.calendar.month_end(3))?;
//! assert!(qssf.is_trained());
//! # Ok::<(), helios_trace::HeliosError>(())
//! ```

pub mod ces;
pub mod qssf;

pub use ces::{CesEvaluation, CesService, CesServiceConfig};
pub use qssf::{noisy_oracle_priorities, QssfConfig, QssfService};
