//! The determinism anchor: the committed counter seed `BENCH_SEED.json`
//! (`sslic-bench-seed-v1`) is regenerated in-process through every
//! execution path and must match byte for byte.
//!
//! The seed pins, per image size, the label checksum, the engine's
//! operation counters, and the modeled 8-bit accelerator DRAM traffic of
//! one cold frame of the paper's primary configuration (S-SLIC PPA,
//! 2 subsets, quantized 8-bit). Every field is a pure function of the
//! workload — no wall-clock anywhere — so the same text must come out of
//! every cell of mode {oneshot `Segmenter::run`, session `run_into`,
//! fleet `SessionFleet::run`} × engine threads {1, 4} × assign kernel
//! {Scalar, Swar}.
//!
//! A change that shifts a counter or a checksum fails here; the message
//! carries the regenerated seed, and a deliberate change is committed by
//! editing `BENCH_SEED.json` in the same commit.

use sslic::core::instrument::{RunCounters, TrafficModel};
use sslic::core::{label_checksum, DistanceMode};
use sslic::image::synthetic::SyntheticImage;
use sslic::image::Plane;
use sslic::prelude::*;

const SEED: &str = include_str!("../BENCH_SEED.json");
const SIZES: [(usize, usize); 2] = [(160, 120), (320, 240)];
const SUPERPIXELS: usize = 150;
const ITERATIONS: u32 = 5;

#[derive(Debug, Clone, Copy)]
enum Mode {
    Oneshot,
    Session,
    Fleet,
}

/// Runs one cold frame through `mode`, returning the label checksum and
/// the frame's counters.
fn cold_frame(mode: Mode, seg: &Segmenter, img: &SyntheticImage) -> (u64, RunCounters) {
    let (w, h) = (img.rgb.width(), img.rgb.height());
    let request = SegmentRequest::Rgb(&img.rgb);
    let options = RunOptions::new();
    match mode {
        Mode::Oneshot => {
            let out = seg.run(request, &options);
            (label_checksum(out.labels()), *out.counters())
        }
        Mode::Session => {
            let mut labels = Plane::filled(w, h, 0u32);
            let report = seg.session(w, h).run_into(request, &options, &mut labels);
            (label_checksum(&labels), *report.counters())
        }
        Mode::Fleet => {
            let mut fleet = SessionFleet::new(seg, w, h, FleetConfig::default());
            let report = fleet.run(StreamId(0), request, &options);
            let labels = fleet.stream_labels(StreamId(0)).expect("stream just ran");
            (label_checksum(labels), *report.counters())
        }
    }
}

/// Builds the `sslic-bench-seed-v1` text for one mode × threads × kernel
/// cell.
fn seed_text(mode: Mode, threads: usize, kernel: Kernel) -> String {
    let mut out = String::from("{\n  \"schema\": \"sslic-bench-seed-v1\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"algorithm\": \"sslic_ppa\", \"subsets\": 2, \
         \"distance\": \"quantized8\", \"superpixels\": {SUPERPIXELS}, \
         \"iterations\": {ITERATIONS}, \"seed\": 2024}},\n"
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        let img = SyntheticImage::builder(w, h).seed(2024).regions(12).build();
        let params = SlicParams::builder(SUPERPIXELS)
            .iterations(ITERATIONS)
            .threads(threads)
            .kernel(kernel)
            .build();
        let seg = Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8));
        let (sum, c) = cold_frame(mode, &seg, &img);
        let hw = TrafficModel::hw_8bit().bytes(&c);
        out.push_str(&format!(
            concat!(
                "    {{\"width\": {}, \"height\": {}, \"label_checksum\": \"{:#018x}\", ",
                "\"distance_calcs\": {}, \"pixel_color_reads\": {}, ",
                "\"label_writes\": {}, \"center_updates\": {}, ",
                "\"sub_iterations\": {}, \"hw8_read_bytes\": {}, ",
                "\"hw8_written_bytes\": {}}}{}\n"
            ),
            w,
            h,
            sum,
            c.distance_calcs,
            c.pixel_color_reads,
            c.label_writes,
            c.center_updates,
            c.sub_iterations,
            hw.read,
            hw.written,
            if i + 1 < SIZES.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Asserts every threads × kernel cell of `mode` against the seed.
fn check_mode(mode: Mode) {
    for threads in [1usize, 4] {
        for kernel in [Kernel::Scalar, Kernel::Swar] {
            let text = seed_text(mode, threads, kernel);
            assert_eq!(
                text, SEED,
                "{mode:?}/{threads}/{kernel:?} diverges from BENCH_SEED.json; regenerated:\n{text}"
            );
        }
    }
}

#[test]
fn oneshot_reproduces_the_seed() {
    check_mode(Mode::Oneshot);
}

#[test]
fn session_reproduces_the_seed() {
    check_mode(Mode::Session);
}

#[test]
fn fleet_reproduces_the_seed() {
    check_mode(Mode::Fleet);
}
