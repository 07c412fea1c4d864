//! `perfbench`: the Helios workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <qssf-pipeline|sched-replay> \
//!     [--seed 2020] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Prints each metric with its unit and better direction, a `record` line
//! stamping seed, scale, thread count and sample counts, and as the last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Any failed correctness check exits with code 1 before a
//! metric is printed; bad arguments exit with code 2. A traced run writes
//! its spans to `.perfbench_out/` under the working directory.

pub mod checks;
pub mod cli;
pub mod fleet;
pub mod heap;
pub mod host;
pub mod metrics;
pub mod sched;
pub mod spans;
pub mod sweep;
pub mod workloads;

pub use cli::main;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Why a run failed: a broken correctness check or an error the program
/// returned. Either ends the run with exit code 1.
#[derive(Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for Error {
    fn from(message: String) -> Self {
        Error(message)
    }
}

impl From<&str> for Error {
    fn from(message: &str) -> Self {
        Error(message.to_string())
    }
}

impl From<helios_trace::HeliosError> for Error {
    fn from(e: helios_trace::HeliosError) -> Self {
        Error(e.to_string())
    }
}

pub type Res<T> = Result<T, Error>;
