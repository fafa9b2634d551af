//! What every workload run shares: its options, its outcome, and the
//! bookkeeping of frames checked against the reference.

use std::fs;
use std::time::Duration;

use sslic_core::instrument::predict_ppa_distance_calcs;
use sslic_core::{Algorithm, Segmenter};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same frames.
    pub seed: u64,
    /// Length of the timed window. A traced run splits it into an
    /// untraced and a traced half.
    pub window: Duration,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Frames checked against the reference.
    pub attempted: u64,
    /// Frames that failed, were rejected, or mismatched the reference.
    pub failed: u64,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Workload facts for the fingerprint line, as rendered JSON values.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One frame as the program produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Produced {
    /// FNV-1a of the frame's label map.
    pub checksum: u64,
    /// Distance evaluations the frame reported.
    pub distance_calcs: u64,
    /// The frame completed with an `ok` status.
    pub ok: bool,
}

/// Counts the frames of `produced` that failed: not `ok`, a checksum
/// other than the reference's, or a distance count other than the one
/// the configuration predicts. A frame without a counterpart on the other
/// side — a reply that never came — fails too.
pub fn count_failures(produced: &[Produced], reference: &[u64], predicted_calcs: u64) -> u64 {
    let missing = produced.len().abs_diff(reference.len());
    let bad = produced
        .iter()
        .zip(reference)
        .filter(|(p, &r)| !p.ok || p.checksum != r || p.distance_calcs != predicted_calcs)
        .count();
    (bad + missing) as u64
}

/// Distance evaluations one frame of `width × height` performs under
/// `config`: a pure function of the configuration and geometry.
pub fn predicted_calcs(config: &Segmenter, width: usize, height: usize) -> u64 {
    match config.algorithm() {
        Algorithm::SSlicPpa { subsets, strategy } => predict_ppa_distance_calcs(
            width,
            height,
            config.params().iterations(),
            subsets,
            strategy,
        ),
        _ => 0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or carries no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Applies `job` to every item, the even positions on one thread and the
/// odd on another, and returns the results in item order. Reference
/// replays of independent frames or streams use it outside the timed
/// window.
///
/// # Errors
///
/// The first error of any job, or a worker that panicked.
pub fn on_two_threads<T: Sync, R: Send>(
    items: &[T],
    job: impl Fn(&T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let job = &job;
    let halves = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|half| {
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(half)
                        .step_by(2)
                        .map(|(i, item)| job(item).map(|r| (i, r)))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("a worker panicked".to_string()))
            })
            .collect::<Vec<_>>()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for half in halves {
        for (i, r) in half? {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.ok_or_else(|| "a worker skipped an item".to_string()))
        .collect()
}
