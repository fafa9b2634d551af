//! Wall-clock benchmark of the S-SLIC frame path.
//!
//! Three closed-loop workloads, one client each, on the `hw8`
//! configuration (S-SLIC PPA, 2 subsets, 8-bit quantized distances,
//! `Kernel::Auto`):
//!
//! * `stream-vga-warm` — one warm-started 640×480 video stream;
//! * `hd-cold-2t` — cold 1280×720 frames on two engine threads;
//! * `serve-4stream` — the in-process `serve` pump over four interleaved
//!   320×240 streams with periodic rebinds and telemetry requests.
//!
//! An untraced run prints the end-to-end metrics; a traced run times the
//! calls into each layer's public functions from this crate and prints
//! the per-layer metrics. Every frame's labels are checked against a
//! reference from the scalar kernel on one thread.

#![forbid(unsafe_code)]

pub mod fingerprint;
pub mod frames;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod serve;
pub mod stats;

use frames::FramePath;
use run::{Outcome, RunConfig};
use serve::ServeWorkload;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["stream-vga-warm", "hd-cold-2t", "serve-4stream"];

/// Generates the inputs of `workload` from `cfg.seed` and runs it.
///
/// # Errors
///
/// An unknown workload name, or a run that could not complete.
pub fn run_workload(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "stream-vga-warm" => FramePath::stream_vga_warm(cfg.seed).run(cfg),
        "hd-cold-2t" => FramePath::hd_cold_2t(cfg.seed).run(cfg),
        "serve-4stream" => ServeWorkload::new(cfg.seed)?.run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
