//! Per-layer samples of a traced run, the accelerator model at the same
//! configuration, and their reduction to the per-layer metrics.

use std::time::Duration;

use sslic_core::profile::{Phase, PhaseBreakdown};
use sslic_hw::accel::{Accelerator, AcceleratorConfig};
use sslic_hw::model::cycles_to_ms;
use sslic_image::RgbImage;

use crate::stats::median;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-frame samples of every timed layer call, in milliseconds. A layer
/// the workload never calls keeps an empty list.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `ppm::read_ppm` of the frame payload.
    pub decode: Vec<f64>,
    /// `HwColorConverter::convert_image_into`.
    pub convert: Vec<f64>,
    /// `FrameReport::breakdown()` phases of the Lab8 frame.
    pub init: Vec<f64>,
    /// Assign (distance + min) phase.
    pub assign: Vec<f64>,
    /// Center-update phase.
    pub update: Vec<f64>,
    /// Connectivity phase.
    pub connectivity: Vec<f64>,
    /// Segmentation call wall time minus its phases.
    pub unattributed: Vec<f64>,
    /// `SessionFleet::try_run`.
    pub fleet_run: Vec<f64>,
    /// `run_report(..).to_json()`.
    pub encode: Vec<f64>,
    /// The whole traced frame.
    pub frame: Vec<f64>,
}

impl Layers {
    /// Records the phases of one segmentation call that took `call` of
    /// wall time.
    pub fn record_core(&mut self, breakdown: &PhaseBreakdown, call: Duration) {
        self.init.push(ms(breakdown.phase_time(Phase::Init)));
        self.assign
            .push(ms(breakdown.phase_time(Phase::DistanceMin)));
        self.update
            .push(ms(breakdown.phase_time(Phase::CenterUpdate)));
        self.connectivity
            .push(ms(breakdown.phase_time(Phase::Connectivity)));
        self.unattributed
            .push(ms(call.saturating_sub(breakdown.total())));
    }
}

/// Modeled accelerator time per stage for one frame, in milliseconds of
/// simulated time at the model's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwModel {
    /// Color conversion unit.
    pub color_ms: f64,
    /// Cluster Update Unit assignment.
    pub assign_ms: f64,
    /// Center update.
    pub center_ms: f64,
    /// DRAM transfers.
    pub memory_ms: f64,
}

/// Runs the functional accelerator at the workload's configuration over
/// `a` and over `b` (frames of different seeds).
///
/// # Errors
///
/// The two frames model to different times: the model's timing must be
/// a function of the configuration alone.
pub fn hw_model(
    superpixels: usize,
    iterations: u32,
    a: &RgbImage,
    b: &RgbImage,
) -> Result<HwModel, String> {
    let accel = Accelerator::new(AcceleratorConfig {
        iterations,
        subsets: 2,
        compactness: 10.0,
        ..AcceleratorConfig::new(superpixels)
    });
    let [ma, mb] = [a, b].map(|img| {
        let run = accel.process(img);
        HwModel {
            color_ms: cycles_to_ms(run.color_cycles),
            assign_ms: cycles_to_ms(run.assign_cycles),
            center_ms: cycles_to_ms(run.center_cycles),
            memory_ms: cycles_to_ms(run.memory_cycles),
        }
    });
    if ma != mb {
        return Err(format!("hw model differs across seeds: {ma:?} vs {mb:?}"));
    }
    Ok(ma)
}

/// Everything a traced run measured besides the layer samples.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    /// Pixels per frame.
    pub pixels: usize,
    /// Distance evaluations per frame (identical on every frame).
    pub distance_calcs: u64,
    /// Session scratch inventory in bytes.
    pub scratch_bytes: u64,
    /// Median frame time of the untraced half of the run, in ms.
    pub untraced_p50: f64,
    /// Cold rebinds in the traced half.
    pub rebinds: u64,
    /// Admission rejections in the traced half.
    pub rejected: u64,
    /// Whether the untraced frame time is a serve latency, whose excess
    /// over the timed layers is `serve.overhead_ms`.
    pub serve: bool,
}

/// Reduces a traced run to the per-layer metric values.
pub fn layer_values(l: &Layers, cx: &Context, hw: &HwModel) -> Vec<(&'static str, f64)> {
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let assign = med(&l.assign);
    let convert = med(&l.convert);
    let timed_layers = med(&l.decode) + convert + med(&l.fleet_run) + med(&l.encode);
    vec![
        ("image.decode_ms", med(&l.decode)),
        ("color.convert_ms", convert),
        ("color.ns_per_px", convert * 1e6 / cx.pixels as f64),
        ("core.init_ms", med(&l.init)),
        ("core.assign_ms", assign),
        ("core.update_ms", med(&l.update)),
        ("core.connectivity_ms", med(&l.connectivity)),
        ("core.unattributed_ms", med(&l.unattributed)),
        ("core.distance_calcs", cx.distance_calcs as f64),
        (
            "core.ns_per_distance_calc",
            assign * 1e6 / cx.distance_calcs as f64,
        ),
        (
            "core.scratch_mib",
            cx.scratch_bytes as f64 / (1u64 << 20) as f64,
        ),
        ("fleet.run_ms", med(&l.fleet_run)),
        ("fleet.rebinds", cx.rebinds as f64),
        ("fleet.rejected", cx.rejected as f64),
        ("serve.encode_ms", med(&l.encode)),
        (
            "serve.overhead_ms",
            if cx.serve {
                cx.untraced_p50 - timed_layers
            } else {
                0.0
            },
        ),
        ("hw.color_ms_modeled", hw.color_ms),
        ("hw.assign_ms_modeled", hw.assign_ms),
        ("hw.center_ms_modeled", hw.center_ms),
        ("hw.memory_ms_modeled", hw.memory_ms),
        ("hw.assign_gap", assign / hw.assign_ms),
        (
            "trace.overhead_pct",
            (med(&l.frame) / cx.untraced_p50 - 1.0) * 100.0,
        ),
    ]
}
