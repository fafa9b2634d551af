//! The `serve-4stream` workload: the in-process `serve` pump reading a
//! framepack capture from memory and writing its replies to memory.
//!
//! Four streams are interleaved round-robin, one per fleet slot. Every
//! stream id lives for [`LIFETIME`] frames, then is closed and replaced by
//! a fresh id, so one frame in [`LIFETIME`] is a cold rebind; lifetimes
//! start staggered so the rebinds spread evenly. A `WIRE_STATS` request
//! follows every [`STATS_EVERY`] frames. The client is closed-loop: the
//! pump reads the next record only after it has written the previous
//! frame's reply.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use sslic_color::hw::HwColorConverter;
use sslic_color::Lab8Image;
use sslic_core::obs::json;
use sslic_core::obs::telemetry::render_prometheus;
use sslic_core::{
    label_checksum, serve, FleetConfig, Kernel, RunOptions, SegmentRequest, SegmentationStatus,
    Segmenter, SegmenterSession, ServeOptions, SessionFleet, StreamId, WIRE_CLOSE, WIRE_FRAME,
    WIRE_STATS,
};
use sslic_image::{ppm, RgbImage};

use crate::inputs::{hw8, pan_frames, scene, subseed};
use crate::layers::{hw_model, layer_values, ms, Context, Layers};
use crate::run::{
    count_failures, on_two_threads, peak_rss_mib, predicted_calcs, Outcome, Produced, RunConfig,
    SETUP_REPS,
};
use crate::stats::{beyond, median, percentile};

const WIDTH: usize = 320;
const HEIGHT: usize = 240;
const SUPERPIXELS: usize = 150;
const ITERATIONS: u32 = 2;
/// Streams in flight, and fleet slots.
const LANES: usize = 4;
/// Frames per stream id before it is closed and replaced.
const LIFETIME: u64 = 16;
/// Frames between two `WIRE_STATS` requests.
const STATS_EVERY: u64 = 32;
/// Frames of the panning clip the streams play from.
const CLIP: usize = 64;
/// Salt of the scene the accelerator model is cross-checked on.
const HW_PROBE_SALT: u64 = 0x4857;

/// One wire record of the capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    /// A frame of `stream`: clip frame `frame`.
    Frame { stream: u64, frame: usize },
    /// Close `stream`, freeing its slot.
    Close(u64),
    /// A telemetry request.
    Stats,
}

/// The endless, deterministic record sequence of the capture.
#[derive(Debug, Clone)]
struct Schedule {
    /// Per lane: (stream id, frames left, frames played).
    lanes: [(u64, u64, u64); LANES],
    next_id: u64,
    frames: u64,
    pending: Vec<Record>,
}

impl Schedule {
    /// Lane `k` starts with stream `k`, living `LIFETIME - 4k` frames.
    fn new() -> Schedule {
        let mut lanes = [(0, 0, 0); LANES];
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = (k as u64, LIFETIME - (LIFETIME / LANES as u64) * k as u64, 0);
        }
        Schedule {
            lanes,
            next_id: LANES as u64,
            frames: 0,
            pending: Vec::new(),
        }
    }
}

impl Iterator for Schedule {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.pending.is_empty() {
            let lane = &mut self.lanes[(self.frames % LANES as u64) as usize];
            if lane.1 == 0 {
                self.pending.push(Record::Close(lane.0));
                *lane = (self.next_id, LIFETIME, 0);
                self.next_id += 1;
            }
            // Each stream starts at its own point of the clip, then plays
            // it forward one frame at a time.
            let start = lane.0 as usize * 17;
            self.pending.push(Record::Frame {
                stream: lane.0,
                frame: (start + lane.2 as usize) % CLIP,
            });
            lane.1 -= 1;
            lane.2 += 1;
            self.frames += 1;
            if self.frames.is_multiple_of(STATS_EVERY) {
                self.pending.push(Record::Stats);
            }
            self.pending.reverse();
        }
        self.pending.pop()
    }
}

/// The capture as a reader: wire records produced on demand from the
/// prebuilt PPM payloads, logging what was sent and when each frame's
/// last payload byte was read.
struct Feed<'a> {
    schedule: Schedule,
    payloads: &'a [Vec<u8>],
    /// The capture ends at the first record boundary this long after the
    /// warm-up frame's reply; `None` ends it right after that reply.
    window: Option<Duration>,
    head: Vec<u8>,
    head_pos: usize,
    /// Clip index and read position of the payload being read.
    payload: Option<(usize, usize)>,
    /// Set at the first record boundary after the warm-up frame: the end
    /// of set-up and the start of the timed window.
    window_start: Option<Instant>,
    sent: Vec<(u64, usize)>,
    payload_done: Vec<Instant>,
}

impl<'a> Feed<'a> {
    fn new(payloads: &'a [Vec<u8>], window: Option<Duration>) -> Feed<'a> {
        Feed {
            schedule: Schedule::new(),
            payloads,
            window,
            head: Vec::with_capacity(16),
            head_pos: 0,
            payload: None,
            window_start: None,
            sent: Vec::new(),
            payload_done: Vec::new(),
        }
    }

    /// Starts the next record; `false` ends the capture.
    fn next_record(&mut self) -> bool {
        let now = Instant::now();
        if !self.sent.is_empty() && self.window_start.is_none() {
            self.window_start = Some(now);
        }
        let more = match (self.window, self.window_start) {
            (_, None) => true,
            (Some(window), Some(start)) => now - start < window,
            (None, Some(_)) => false,
        };
        if !more {
            return false;
        }
        self.head.clear();
        self.head_pos = 0;
        match self.schedule.next() {
            Some(Record::Frame { stream, frame }) => {
                let len = self.payloads[frame].len() as u32;
                self.head.push(WIRE_FRAME);
                self.head.extend_from_slice(&stream.to_le_bytes());
                self.head.extend_from_slice(&len.to_le_bytes());
                self.payload = Some((frame, 0));
                self.sent.push((stream, frame));
            }
            Some(Record::Close(stream)) => {
                self.head.push(WIRE_CLOSE);
                self.head.extend_from_slice(&stream.to_le_bytes());
            }
            Some(Record::Stats) => self.head.push(WIRE_STATS),
            None => return false,
        }
        true
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.head_pos == self.head.len() && self.payload.is_none() && !self.next_record() {
            return Ok(0);
        }
        if self.head_pos < self.head.len() {
            let n = buf.len().min(self.head.len() - self.head_pos);
            buf[..n].copy_from_slice(&self.head[self.head_pos..self.head_pos + n]);
            self.head_pos += n;
            return Ok(n);
        }
        let Some((frame, pos)) = self.payload else {
            return Ok(0);
        };
        let src = &self.payloads[frame][pos..];
        let n = buf.len().min(src.len());
        buf[..n].copy_from_slice(&src[..n]);
        if n == src.len() {
            self.payload = None;
            self.payload_done.push(Instant::now());
        } else {
            self.payload = Some((frame, pos + n));
        }
        Ok(n)
    }
}

/// The reply sink: keeps the bytes and the instant each line ended.
#[derive(Default)]
struct Sink {
    bytes: Vec<u8>,
    line_ends: Vec<Instant>,
}

impl Write for Sink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(data);
        for _ in data.iter().filter(|&&b| b == b'\n') {
            self.line_ends.push(Instant::now());
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One reply line that reports a segmented frame.
struct Reply {
    at: Instant,
    produced: Produced,
    /// The stream's first frame since it was bound: seeded cold.
    cold: bool,
}

/// Splits the sink into frame reports, counting every refusal line.
fn replies(sink: &Sink) -> Result<(Vec<Reply>, u64), String> {
    let mut out = Vec::new();
    let mut refused = 0;
    let lines = sink.bytes.split(|&b| b == b'\n');
    for (line, &at) in lines.zip(&sink.line_ends) {
        let text = std::str::from_utf8(line).map_err(|e| format!("reply is not UTF-8: {e}"))?;
        let doc = json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
        match doc.get("schema").and_then(|s| s.as_str()) {
            Some("sslic-run-report-v2") => {
                let field = |group: &str, key: &str| doc.get(group).and_then(|g| g.get(key));
                let number = |group: &str, key: &str| {
                    field(group, key)
                        .and_then(|v| v.as_u64())
                        .ok_or_else(|| format!("report without {group}.{key}"))
                };
                out.push(Reply {
                    at,
                    produced: Produced {
                        checksum: number("fleet", "label_checksum")?,
                        distance_calcs: number("counters", "distance_calcs")?,
                        ok: doc.get("status").and_then(|s| s.as_str()) == Some("ok"),
                    },
                    cold: number("fleet", "frames")? == 1,
                });
            }
            Some("sslic-serve-reject-v1" | "sslic-serve-queued-v1") => refused += 1,
            _ => {}
        }
    }
    Ok((out, refused))
}

/// What the traced half measured and checked.
struct TracedHalf {
    layers: Layers,
    frames: u64,
    failed: u64,
    /// Streams bound cold into a slot another stream had used.
    rebinds: u64,
    /// Admission rejections.
    rejected: u64,
}

/// The `serve-4stream` workload and its prebuilt capture.
pub struct ServeWorkload {
    seed: u64,
    clip: Vec<RgbImage>,
    payloads: Vec<Vec<u8>>,
}

impl ServeWorkload {
    /// Builds the 64-frame 320×240 clip and its PPM payloads.
    ///
    /// # Errors
    ///
    /// A frame that fails to encode.
    pub fn new(seed: u64) -> Result<ServeWorkload, String> {
        let clip = pan_frames(WIDTH, HEIGHT, CLIP, seed);
        let payloads = clip
            .iter()
            .map(|img| {
                let mut bytes = Vec::new();
                ppm::write_ppm(&mut bytes, img).map(|()| bytes)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(ServeWorkload {
            seed,
            clip,
            payloads,
        })
    }

    fn fleet_config() -> FleetConfig {
        FleetConfig::builder()
            .with_slots(LANES)
            .with_frame_workers(1)
            .build()
    }

    /// One `serve` pump over the capture; returns the feed and sink.
    fn pump(
        &self,
        config: &Segmenter,
        window: Option<Duration>,
    ) -> Result<(Feed<'_>, Sink, Instant), String> {
        let mut feed = Feed::new(&self.payloads, window);
        let mut sink = Sink {
            bytes: Vec::with_capacity(16 << 20),
            line_ends: Vec::with_capacity(1 << 14),
        };
        let options = ServeOptions::new().with_wallclock(true);
        let called = Instant::now();
        serve(config, Self::fleet_config(), &mut feed, &mut sink, &options)?;
        Ok((feed, sink, called))
    }

    /// Runs the workload: set-up, the timed pump (halved and followed by
    /// a traced half when `cfg.traced`), then the reference check.
    ///
    /// # Errors
    ///
    /// A pump that failed, or a failed measurement.
    pub fn run(&self, cfg: &RunConfig) -> Result<Outcome, String> {
        let config = hw8(SUPERPIXELS, ITERATIONS, 1, Kernel::Auto);
        let predicted = predicted_calcs(&config, WIDTH, HEIGHT);

        // Set-up: fleet construction plus the warm-up frame, up to the
        // pump's request for the next record. The timed pump's own set-up
        // is the last sample.
        let mut setup = Vec::with_capacity(SETUP_REPS);
        for _ in 1..SETUP_REPS {
            let (feed, _, called) = self.pump(&config, None)?;
            let end = feed
                .window_start
                .ok_or("set-up pump ended before its frame")?;
            setup.push((end - called).as_secs_f64());
        }
        let untraced = if cfg.traced {
            cfg.window / 2
        } else {
            cfg.window
        };
        let (feed, sink, called) = self.pump(&config, Some(untraced))?;
        let peak_rss = peak_rss_mib()?;
        let start = feed
            .window_start
            .ok_or("the pump ended before its warm-up frame")?;
        setup.push((start - called).as_secs_f64());

        let (reports, refused) = replies(&sink)?;
        let latency: Vec<f64> = reports
            .iter()
            .zip(&feed.payload_done)
            .skip(1)
            .map(|(r, &read)| ms(r.at - read))
            .collect();
        let last = reports.last().map_or(start, |r| r.at);
        let p50 = median(&latency).ok_or("no frame completed in the window")?;
        let timed = &reports[1.min(reports.len())..];
        let cold = timed.iter().filter(|r| r.cold).count();
        let rebinds = timed
            .iter()
            .zip(feed.sent.iter().skip(1))
            .filter(|(r, s)| r.cold && s.0 >= LANES as u64)
            .count();
        let share = |n: usize| n as f64 / timed.len().max(1) as f64;

        let produced: Vec<Produced> = reports.iter().map(|r| r.produced).collect();
        let reference = self.reference(&feed.sent)?;
        let mut attempted = feed.sent.len() as u64;
        let mut failed = count_failures(&produced, &reference, predicted) + refused;

        let values = if cfg.traced {
            let half = self.traced(&config, predicted, cfg.window / 2)?;
            attempted += half.frames;
            failed += half.failed;
            let probe = scene(WIDTH, HEIGHT, subseed(self.seed, HW_PROBE_SALT));
            let hw = hw_model(SUPERPIXELS, ITERATIONS, &self.clip[0], &probe)?;
            let scratch_bytes = SegmenterSession::try_new(config.clone(), WIDTH, HEIGHT)
                .map_err(|e| e.to_string())?
                .scratch_inventory()
                .1;
            let cx = Context {
                pixels: WIDTH * HEIGHT,
                distance_calcs: predicted,
                scratch_bytes,
                untraced_p50: p50,
                rebinds: half.rebinds,
                rejected: half.rejected,
                serve: true,
            };
            layer_values(&half.layers, &cx, &hw)
        } else {
            vec![
                (
                    "frames_per_s",
                    latency.len() as f64 / (last - start).as_secs_f64(),
                ),
                ("frame_ms_p50", p50),
                ("frame_ms_p90", percentile(&latency, 90.0).unwrap_or(p50)),
                ("setup_s", median(&setup).unwrap_or(0.0)),
                ("peak_rss_mib", peak_rss),
            ]
        };

        Ok(Outcome {
            attempted,
            failed,
            values,
            info: vec![
                ("frames_timed", latency.len().to_string()),
                ("frames_beyond_p90", beyond(&latency, 90.0).to_string()),
                ("cold_frame_share", share(cold).to_string()),
                ("cold_rebind_share", share(rebinds).to_string()),
            ],
        })
    }

    /// The traced half: the benchmark replays the capture through its own
    /// fleet — decode, convert, `SessionFleet::try_run` on the Lab8
    /// frame, report encode — timing every call, then checks every frame
    /// against the reference.
    fn traced(
        &self,
        config: &Segmenter,
        predicted_calcs: u64,
        window: Duration,
    ) -> Result<TracedHalf, String> {
        let fleet_config = Self::fleet_config().with_wallclock_latency(true);
        let mut fleet = SessionFleet::try_new(config, WIDTH, HEIGHT, fleet_config)
            .map_err(|e| e.to_string())?;
        let converter = HwColorConverter::paper_default();
        let mut lab8 = Lab8Image::from_fn(WIDTH, HEIGHT, |_, _| [0; 3]);
        let mut out: Vec<u8> = Vec::with_capacity(16 << 20);
        let mut layers = Layers::default();
        let (mut sent, mut produced) = (Vec::new(), Vec::new());
        let mut rebinds = 0;
        let mut start = None;
        for record in Schedule::new() {
            if start.is_some_and(|s: Instant| s.elapsed() >= window) {
                break;
            }
            let (stream, frame) = match record {
                Record::Frame { stream, frame } => (StreamId(stream), frame),
                Record::Close(stream) => {
                    fleet.close(StreamId(stream));
                    continue;
                }
                Record::Stats => {
                    out.extend_from_slice(render_prometheus(&fleet.metrics_registry()).as_bytes());
                    continue;
                }
            };
            let t0 = Instant::now();
            let image = ppm::read_ppm(&self.payloads[frame][..]).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            converter.convert_image_into(&image, &mut lab8);
            let t2 = Instant::now();
            let report = fleet
                .try_run(stream, SegmentRequest::Lab8(&lab8), &RunOptions::new())
                .map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            let line = fleet
                .run_report(stream, &report, false)
                .map(|r| r.to_json())
                .ok_or("the stream lost its slot")?;
            let t4 = Instant::now();
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            let t5 = Instant::now();

            let labels = fleet
                .stream_labels(stream)
                .ok_or("the stream lost its slot")?;
            sent.push((stream.0, frame));
            produced.push(Produced {
                checksum: label_checksum(labels),
                distance_calcs: report.counters().distance_calcs,
                ok: report.status() == SegmentationStatus::Ok,
            });
            // The first frame warms the fleet up and is not sampled.
            if start.is_none() {
                start = Some(t5);
                continue;
            }
            let first_of_stream = fleet.stream_stats(stream).is_some_and(|s| s.frames == 1);
            if first_of_stream && stream.0 >= LANES as u64 {
                rebinds += 1;
            }
            layers.decode.push(ms(t1 - t0));
            layers.convert.push(ms(t2 - t1));
            layers.fleet_run.push(ms(t3 - t2));
            layers.record_core(report.breakdown(), t3 - t2);
            layers.encode.push(ms(t4 - t3));
            layers.frame.push(ms(t5 - t0));
        }
        let reference = self.reference(&sent)?;
        Ok(TracedHalf {
            layers,
            frames: sent.len() as u64,
            failed: count_failures(&produced, &reference, predicted_calcs),
            rebinds,
            rejected: fleet.stats().rejected,
        })
    }

    /// Label checksums of every frame of `sent`, in order, from a fresh
    /// scalar 1-thread session per stream id. Streams are independent, so
    /// two threads share them.
    fn reference(&self, sent: &[(u64, usize)]) -> Result<Vec<u64>, String> {
        let config = hw8(SUPERPIXELS, ITERATIONS, 1, Kernel::Scalar);
        let mut streams: Vec<(u64, Vec<usize>)> = Vec::new();
        for (pos, &(stream, _)) in sent.iter().enumerate() {
            match streams.iter_mut().find(|(s, _)| *s == stream) {
                Some((_, positions)) => positions.push(pos),
                None => streams.push((stream, vec![pos])),
            }
        }
        let replays = on_two_threads(&streams, |(_, positions)| {
            let mut session = SegmenterSession::try_new(config.clone(), WIDTH, HEIGHT)
                .map_err(|e| e.to_string())?;
            positions
                .iter()
                .map(|&pos| {
                    session
                        .try_run(
                            SegmentRequest::Rgb(&self.clip[sent[pos].1]),
                            &RunOptions::new(),
                        )
                        .map_err(|e| e.to_string())?;
                    Ok((pos, label_checksum(session.labels())))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut sums = vec![0u64; sent.len()];
        for (pos, sum) in replays.into_iter().flatten() {
            sums[pos] = sum;
        }
        Ok(sums)
    }
}
