//! The two session workloads: `stream-vga-warm` (one warm-started video
//! stream) and `hd-cold-2t` (cold 720p frames on two engine threads).

use std::time::{Duration, Instant};

use sslic_color::hw::HwColorConverter;
use sslic_color::Lab8Image;
use sslic_core::{
    label_checksum, FrameReport, Kernel, RunOptions, SegmentRequest, SegmentationStatus,
    SegmenterSession,
};
use sslic_image::{Plane, RgbImage};

use crate::inputs::{distinct_frames, hw8, pan_frames, scene, subseed};
use crate::layers::{hw_model, layer_values, ms, Context, Layers};
use crate::run::{
    count_failures, on_two_threads, peak_rss_mib, predicted_calcs, Outcome, Produced, RunConfig,
    SETUP_REPS,
};
use crate::stats::{beyond, median, percentile};

/// Salt of the scene the accelerator model is cross-checked on.
const HW_PROBE_SALT: u64 = 0x4857;

/// A session workload: geometry, configuration, and its frame sequence.
#[derive(Debug, Clone)]
pub struct FramePath {
    width: usize,
    height: usize,
    superpixels: usize,
    iterations: u32,
    threads: usize,
    /// Warm-start every frame from the previous one through
    /// [`SegmenterSession::run`]; otherwise seed every frame cold through
    /// [`SegmenterSession::run_into`].
    warm: bool,
    seed: u64,
    /// Frame `i` of the sequence is `frames[i % frames.len()]`; frame 0
    /// is the set-up's warm-up frame.
    frames: Vec<RgbImage>,
}

impl FramePath {
    /// 640×480, K = 600, 2 iterations per frame, warm-started, 1 engine
    /// thread, over a 32-frame panning clip.
    pub fn stream_vga_warm(seed: u64) -> FramePath {
        FramePath {
            width: 640,
            height: 480,
            superpixels: 600,
            iterations: 2,
            threads: 1,
            warm: true,
            seed,
            frames: pan_frames(640, 480, 32, seed),
        }
    }

    /// 1280×720, K = 600, 5 iterations, cold every frame, 2 engine
    /// threads, cycling 4 unrelated scenes.
    pub fn hd_cold_2t(seed: u64) -> FramePath {
        FramePath {
            width: 1280,
            height: 720,
            superpixels: 600,
            iterations: 5,
            threads: 2,
            warm: false,
            seed,
            frames: distinct_frames(1280, 720, 4, seed),
        }
    }

    fn session(&self, threads: usize, kernel: Kernel) -> Result<SegmenterSession, String> {
        let config = hw8(self.superpixels, self.iterations, threads, kernel);
        SegmenterSession::try_new(config, self.width, self.height).map_err(|e| e.to_string())
    }

    /// Segments one frame the way this workload does; the labels land in
    /// the session (warm) or in `out` (cold).
    fn segment(
        &self,
        session: &mut SegmenterSession,
        request: SegmentRequest<'_>,
        out: &mut Plane<u32>,
    ) -> Result<FrameReport, String> {
        let options = RunOptions::new();
        let report = if self.warm {
            session.try_run(request, &options)
        } else {
            session.try_run_into(request, &options, out)
        };
        report.map_err(|e| e.to_string())
    }

    fn produced(&self, session: &SegmenterSession, out: &Plane<u32>, r: &FrameReport) -> Produced {
        let labels = if self.warm { session.labels() } else { out };
        Produced {
            checksum: label_checksum(labels),
            distance_calcs: r.counters().distance_calcs,
            ok: r.status() == SegmentationStatus::Ok,
        }
    }

    /// Runs the workload: set-up, the timed window (halved and followed
    /// by a traced half when `cfg.traced`), then the reference check.
    ///
    /// # Errors
    ///
    /// A frame the engine refused, or a failed measurement.
    pub fn run(&self, cfg: &RunConfig) -> Result<Outcome, String> {
        let (w, h) = (self.width, self.height);
        let mut out = Plane::filled(w, h, 0u32);

        // Set-up: session construction plus the warm-up frame, repeated;
        // the last session is the one measured.
        let mut setup = Vec::with_capacity(SETUP_REPS);
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let mut session = self.session(self.threads, Kernel::Auto)?;
            let report =
                self.segment(&mut session, SegmentRequest::Rgb(&self.frames[0]), &mut out)?;
            setup.push(t.elapsed().as_secs_f64());
            kept = Some((session, report));
        }
        let (mut session, warmup) = kept.ok_or("no set-up ran")?;
        let predicted = predicted_calcs(session.config(), w, h);
        let mut sequence = vec![0usize];
        let mut produced = vec![self.produced(&session, &out, &warmup)];

        let untraced = if cfg.traced {
            cfg.window / 2
        } else {
            cfg.window
        };
        let mut latency = Vec::new();
        let start = Instant::now();
        while start.elapsed() < untraced {
            let idx = sequence.len() % self.frames.len();
            let t0 = Instant::now();
            let report = self.segment(
                &mut session,
                SegmentRequest::Rgb(&self.frames[idx]),
                &mut out,
            )?;
            latency.push(ms(t0.elapsed()));
            sequence.push(idx);
            produced.push(self.produced(&session, &out, &report));
        }
        let elapsed = start.elapsed();
        let peak_rss = peak_rss_mib()?;
        let p50 = median(&latency).ok_or("no frame completed in the window")?;

        let values = if cfg.traced {
            let layers = self.traced(
                &mut session,
                &mut out,
                cfg.window / 2,
                &mut sequence,
                &mut produced,
            )?;
            let probe = scene(w, h, subseed(self.seed, HW_PROBE_SALT));
            let hw = hw_model(self.superpixels, self.iterations, &self.frames[0], &probe)?;
            let cx = Context {
                pixels: w * h,
                distance_calcs: predicted,
                scratch_bytes: session.scratch_inventory().1,
                untraced_p50: p50,
                rebinds: 0,
                rejected: 0,
                serve: false,
            };
            layer_values(&layers, &cx, &hw)
        } else {
            vec![
                ("frames_per_s", latency.len() as f64 / elapsed.as_secs_f64()),
                ("frame_ms_p50", p50),
                ("frame_ms_p90", percentile(&latency, 90.0).unwrap_or(p50)),
                ("setup_s", median(&setup).unwrap_or(0.0)),
                ("peak_rss_mib", peak_rss),
            ]
        };
        drop(session);

        let reference = self.reference(&sequence)?;
        let cold_share = if self.warm { 0.0 } else { 1.0 };
        Ok(Outcome {
            attempted: produced.len() as u64,
            failed: count_failures(&produced, &reference, predicted),
            values,
            info: vec![
                ("frames_timed", latency.len().to_string()),
                ("frames_beyond_p90", beyond(&latency, 90.0).to_string()),
                ("cold_frame_share", cold_share.to_string()),
                ("cold_rebind_share", "0".to_string()),
            ],
        })
    }

    /// The traced half: each frame is converted by the benchmark, then
    /// segmented as `SegmentRequest::Lab8`, with every call timed.
    fn traced(
        &self,
        session: &mut SegmenterSession,
        out: &mut Plane<u32>,
        window: Duration,
        sequence: &mut Vec<usize>,
        produced: &mut Vec<Produced>,
    ) -> Result<Layers, String> {
        let converter = HwColorConverter::paper_default();
        let mut lab8 = Lab8Image::from_fn(self.width, self.height, |_, _| [0; 3]);
        let mut layers = Layers::default();
        let start = Instant::now();
        while start.elapsed() < window {
            let idx = sequence.len() % self.frames.len();
            let t0 = Instant::now();
            converter.convert_image_into(&self.frames[idx], &mut lab8);
            let t1 = Instant::now();
            let report = self.segment(session, SegmentRequest::Lab8(&lab8), out)?;
            let t2 = Instant::now();
            layers.convert.push(ms(t1 - t0));
            layers.record_core(report.breakdown(), t2 - t1);
            layers.frame.push(ms(t2 - t0));
            sequence.push(idx);
            produced.push(self.produced(session, out, &report));
        }
        Ok(layers)
    }

    /// Label checksums of `sequence` from the scalar kernel on one
    /// thread per frame. Cold frames depend only on their input, so each
    /// distinct frame is segmented once, two at a time.
    fn reference(&self, sequence: &[usize]) -> Result<Vec<u64>, String> {
        let mut out = Plane::filled(self.width, self.height, 0u32);
        if self.warm {
            let mut session = self.session(1, Kernel::Scalar)?;
            return sequence
                .iter()
                .map(|&idx| {
                    self.segment(
                        &mut session,
                        SegmentRequest::Rgb(&self.frames[idx]),
                        &mut out,
                    )?;
                    Ok(label_checksum(session.labels()))
                })
                .collect();
        }
        let distinct = on_two_threads(&self.frames, |frame| {
            let mut session = self.session(1, Kernel::Scalar)?;
            let mut out = Plane::filled(self.width, self.height, 0u32);
            self.segment(&mut session, SegmentRequest::Rgb(frame), &mut out)?;
            Ok(label_checksum(&out))
        })?;
        Ok(sequence.iter().map(|&idx| distinct[idx]).collect())
    }
}
