//! Multi-stream session fleets: admission control, deterministic
//! round-robin slot binding, frame-level batch parallelism, and the
//! length-prefixed `serve` wire protocol.
//!
//! A [`SessionFleet`] owns a pool of pre-built [`SegmenterSession`]s
//! (*slots*), all sharing one [`Segmenter`] configuration and one frame
//! geometry. Independent video streams, keyed by [`StreamId`], are bound
//! to slots on first use by a deterministic round-robin scan; a bound
//! stream keeps its slot — and therefore its warm-start center state —
//! until [`SessionFleet::close`] releases it. When every slot is bound,
//! admission fails with [`FleetError::Saturated`] backpressure; a bounded
//! queue ([`SessionFleet::try_enqueue`], capacity
//! [`FleetConfig::queue_depth`]) can park frames until a slot frees.
//!
//! The fleet upholds the contracts of the layers beneath it:
//!
//! * **Bit-identity** — every stream's frames run through an ordinary
//!   session, so a fleet-run stream is bit-identical to a standalone
//!   session fed the same frames, at any thread count and whether frames
//!   arrive one at a time ([`SessionFleet::run`]), batched
//!   ([`SessionFleet::run_batch`]), or over the wire ([`serve`]). Slot
//!   rebinding calls [`SegmenterSession::reset`], so a recycled slot
//!   seeds cold exactly like a fresh session.
//! * **Zero steady-state allocations** — admission is a linear scan over
//!   preallocated slots and per-frame bookkeeping is scalar, so a
//!   steady-state fleet frame allocates nothing (pinned in
//!   `tests/zero_alloc.rs`). The opt-in frame-parallel batch path and the
//!   queue (which owns its parked images) are documented exceptions off
//!   the per-frame steady path.
//! * **Independent healing** — recovery state lives inside each slot's
//!   session, so a recovery-armed stream rolls back and retries without
//!   perturbing its neighbors.
//!
//! Frame-level parallelism ([`FleetConfig::frame_workers`] > 1) runs
//! *different slots* on scoped worker threads during
//! [`SessionFleet::run_batch`]. Each slot's frames still execute in input
//! order on one thread, and slots share no mutable state, so the batch
//! output is bit-identical to the sequential schedule by construction.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::time::Instant;

use sslic_image::{ppm, Plane, RgbImage};
use sslic_obs::sink::escape_json;
use sslic_obs::telemetry::{self, LatencyHistogram};
use sslic_obs::{MetricsRegistry, Recorder, ReportFleet, RunReport, TelemetrySnapshot};

use crate::cluster::Cluster;
use crate::engine::{
    RunOptions, Segmentation, SegmentationStatus, SegmentRequest, Segmenter,
};
use crate::kernel::Kernel;
use crate::recovery::RecoveryPolicy;
use crate::session::{raise, request_dims, FrameReport, SegmentError, SegmenterSession};

/// Identifies one logical video stream within a fleet. Plain `u64`
/// newtype: callers mint the IDs (connection numbers, camera indices);
/// the fleet only compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One frame of a batch: which stream it belongs to and its pixels.
#[derive(Debug, Clone, Copy)]
pub struct StreamFrame<'a> {
    /// The stream this frame extends.
    pub stream: StreamId,
    /// The frame's pixels, in any of the engine's input representations.
    pub request: SegmentRequest<'a>,
}

impl<'a> StreamFrame<'a> {
    /// Pairs a stream with one frame of input.
    pub fn new(stream: StreamId, request: SegmentRequest<'a>) -> Self {
        StreamFrame { stream, request }
    }
}

/// Why the fleet refused an operation. Folded into the unified error
/// hierarchy as [`SegmentError::Fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// Every slot is bound to a live stream; the new stream cannot be
    /// admitted until one closes.
    Saturated {
        /// Streams currently bound to slots.
        streams: usize,
        /// Total slots in the fleet.
        slots: usize,
    },
    /// The admission queue is at its configured capacity.
    QueueFull {
        /// Configured queue depth ([`FleetConfig::queue_depth`]).
        depth: usize,
    },
    /// A [`FleetConfig`] requested zero slots.
    ZeroSlots,
    /// A [`FleetConfig`] requested zero frame workers.
    ZeroWorkers,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Saturated { streams, slots } => write!(
                f,
                "all {slots} fleet slots are bound ({streams} active streams); \
                 close a stream or configure more slots"
            ),
            FleetError::QueueFull { depth } => {
                write!(f, "fleet admission queue is full at its depth of {depth}")
            }
            FleetError::ZeroSlots => write!(f, "a session fleet needs at least one slot"),
            FleetError::ZeroWorkers => {
                write!(f, "a session fleet needs at least one frame worker")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<FleetError> for SegmentError {
    fn from(e: FleetError) -> Self {
        SegmentError::Fleet(e)
    }
}

/// Sizing of a [`SessionFleet`]: slot count, admission-queue depth, and
/// the frame-parallel worker count. Built via [`FleetConfig::builder`];
/// the builder validates, so every constructed config is well-formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    slots: usize,
    queue_depth: usize,
    frame_workers: usize,
    wallclock_latency: bool,
    kernel: Option<Kernel>,
}

impl Default for FleetConfig {
    /// One slot, no queue, sequential batches — the single-stream shape.
    fn default() -> Self {
        FleetConfig {
            slots: 1,
            queue_depth: 0,
            frame_workers: 1,
            wallclock_latency: false,
            kernel: None,
        }
    }
}

impl FleetConfig {
    /// Starts a builder at the default sizing (1 slot, no queue,
    /// sequential batches).
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            slots: 1,
            queue_depth: 0,
            frame_workers: 1,
            wallclock_latency: false,
            kernel: None,
        }
    }

    /// Session slots (maximum concurrently bound streams).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Admission-queue capacity (0 disables queueing).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Scoped worker threads used by the batch API (1 = run batches on
    /// the calling thread).
    pub fn frame_workers(&self) -> usize {
        self.frame_workers
    }

    /// Whether latency histograms record wall-clock nanoseconds (see
    /// [`FleetConfig::with_wallclock_latency`]).
    pub fn wallclock_latency(&self) -> bool {
        self.wallclock_latency
    }

    /// Toggles the unit of the fleet's latency telemetry: off (default),
    /// frame latency is the frame's exact deterministic cost in
    /// distance-evaluation units and queue wait is fleet frames elapsed —
    /// both byte-reproducible; on, both record wall-clock nanoseconds.
    /// Safe to toggle on a built config: it changes no sizing invariant.
    pub fn with_wallclock_latency(mut self, on: bool) -> Self {
        self.wallclock_latency = on;
        self
    }

    /// Fleet-wide assign-kernel preference (see
    /// [`FleetConfig::with_kernel`]). `None` defers to each run's
    /// [`RunOptions`](crate::RunOptions) / params resolution.
    pub fn kernel(&self) -> Option<Kernel> {
        self.kernel
    }

    /// Sets a fleet-wide assign-kernel preference applied to every frame
    /// whose [`RunOptions::kernel`](crate::RunOptions::kernel) is unset.
    /// Like every kernel knob this never changes the labels — all
    /// backends are bit-identical. Safe to toggle on a built config: it
    /// changes no sizing invariant.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = Some(kernel);
        self
    }
}

/// Builder for [`FleetConfig`] (`with_*` chaining, validated by
/// [`FleetConfigBuilder::try_build`]).
#[derive(Debug, Clone, Copy)]
pub struct FleetConfigBuilder {
    slots: usize,
    queue_depth: usize,
    frame_workers: usize,
    wallclock_latency: bool,
    kernel: Option<Kernel>,
}

impl FleetConfigBuilder {
    /// Sets the slot count (see [`FleetConfig::slots`]).
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Sets the admission-queue capacity (see
    /// [`FleetConfig::queue_depth`]).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the batch worker count (see [`FleetConfig::frame_workers`]).
    pub fn with_frame_workers(mut self, workers: usize) -> Self {
        self.frame_workers = workers;
        self
    }

    /// Switches latency telemetry to wall-clock nanoseconds (see
    /// [`FleetConfig::with_wallclock_latency`]).
    pub fn with_wallclock_latency(mut self, on: bool) -> Self {
        self.wallclock_latency = on;
        self
    }

    /// Sets a fleet-wide assign-kernel preference (see
    /// [`FleetConfig::with_kernel`]).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Validates and builds the config.
    ///
    /// # Errors
    ///
    /// [`FleetError::ZeroSlots`] / [`FleetError::ZeroWorkers`] when the
    /// corresponding count is zero.
    pub fn try_build(self) -> Result<FleetConfig, FleetError> {
        if self.slots == 0 {
            return Err(FleetError::ZeroSlots);
        }
        if self.frame_workers == 0 {
            return Err(FleetError::ZeroWorkers);
        }
        Ok(FleetConfig {
            slots: self.slots,
            queue_depth: self.queue_depth,
            frame_workers: self.frame_workers,
            wallclock_latency: self.wallclock_latency,
            kernel: self.kernel,
        })
    }

    /// Panicking convenience over [`FleetConfigBuilder::try_build`].
    ///
    /// # Panics
    ///
    /// Panics on any [`FleetError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn build(self) -> FleetConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => {
                assert!(false, "{e}");
                unreachable!()
            }
        }
    }
}

/// log2 exponent range of the frame-latency histograms: boundaries
/// `[2^8 … 2^36]` cover both deterministic cost units (distance
/// evaluations per frame, ~10^5–10^7) and wall-clock nanoseconds
/// (~10^5–10^10) in one fixed layout, so the report schema never depends
/// on the telemetry mode.
const FRAME_LATENCY_EXP: (u32, u32) = (8, 36);

/// log2 exponent range of the queue-wait histogram: `[2^0 … 2^36]` spans
/// single-frame deterministic waits up to tens of wall-clock seconds.
const QUEUE_WAIT_EXP: (u32, u32) = (0, 36);

/// One fleet slot: a session plus the stream bound to it (if any) and its
/// per-stream tallies.
struct Slot {
    session: SegmenterSession,
    stream: Option<StreamId>,
    frames: u64,
    recovered: u64,
    /// Per-stream frame-latency histogram; reset on rebind along with the
    /// session, so it describes exactly the currently bound stream.
    latency: LatencyHistogram,
}

/// One queued frame awaiting a slot. The queue owns the pixels: by the
/// time the frame becomes admissible the caller's borrow is long gone.
struct Pending {
    stream: StreamId,
    image: RgbImage,
    /// Fleet frame counter at enqueue time — the deterministic queue-wait
    /// clock (wait = frames segmented while parked).
    enqueued_frame: u64,
    /// Wall-clock enqueue stamp, present only in wallclock-latency mode.
    enqueued_at: Option<Instant>,
}

/// Fleet-level totals (see [`SessionFleet::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Frames segmented across all streams.
    pub frames: u64,
    /// Frames whose status was [`SegmentationStatus::Recovered`].
    pub recovered: u64,
    /// Stream-to-slot bindings performed.
    pub admitted: u64,
    /// Admission rejections (saturated fleet or full queue).
    pub rejected: u64,
    /// Frames currently parked in the queue.
    pub queue_depth: u64,
    /// High-water mark of the queue depth.
    pub queued_peak: u64,
    /// Streams currently bound to slots.
    pub active_streams: u64,
    /// Streams unbound via [`SessionFleet::close`].
    pub closed: u64,
}

/// Per-stream tallies (see [`SessionFleet::stream_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Frames this stream segmented since it was (re)bound.
    pub frames: u64,
    /// Of those, frames that healed via recovery.
    pub recovered: u64,
}

/// A pool of pre-warmed [`SegmenterSession`]s serving many concurrent
/// streams: per-stream warm-start state, deterministic round-robin
/// admission, explicit backpressure, and a frame-parallel batch API.
///
/// # Example
///
/// ```
/// use sslic_core::{
///     FleetConfig, RunOptions, SegmentRequest, Segmenter, SessionFleet, SlicParams, StreamId,
/// };
/// use sslic_image::synthetic::SyntheticImage;
///
/// let seg = Segmenter::sslic_ppa(SlicParams::builder(80).iterations(4).build(), 2);
/// let cfg = FleetConfig::builder().with_slots(2).try_build().unwrap();
/// let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
/// for frame in 0..3 {
///     for cam in 0..2u64 {
///         let img = SyntheticImage::builder(64, 48)
///             .seed(cam * 100 + frame)
///             .regions(5)
///             .build();
///         fleet.run(StreamId(cam), SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
///     }
/// }
/// assert_eq!(fleet.stats().frames, 6);
/// assert_eq!(fleet.stream_stats(StreamId(1)).unwrap().frames, 3);
/// ```
pub struct SessionFleet {
    config: Segmenter,
    fleet: FleetConfig,
    width: usize,
    height: usize,
    slots: Vec<Slot>,
    /// Round-robin cursor: the slot index where the next free-slot scan
    /// starts. A pure function of the admission history, never of timing.
    next_slot: usize,
    queue: VecDeque<Pending>,
    queued_peak: u64,
    admitted: u64,
    rejected: u64,
    frames: u64,
    recovered: u64,
    closed: u64,
    /// Fleet-wide frame-latency histogram (deterministic cost units, or
    /// wall-clock nanos under [`FleetConfig::wallclock_latency`]).
    frame_latency: LatencyHistogram,
    /// Fleet-wide queue-wait histogram (frames waited, or wall-clock
    /// nanos).
    queue_wait: LatencyHistogram,
}

impl std::fmt::Debug for SessionFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionFleet")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("slots", &self.slots.len())
            .field("active_streams", &self.active_streams())
            .field("frames", &self.frames)
            .finish_non_exhaustive()
    }
}

impl SessionFleet {
    /// Builds a fleet of `fleet.slots()` sessions for `width × height`
    /// frames, each with the full per-frame scratch inventory of a
    /// standalone session.
    ///
    /// # Errors
    ///
    /// [`SegmentError::EmptyFrame`] if either dimension is zero.
    pub fn try_new(
        config: &Segmenter,
        width: usize,
        height: usize,
        fleet: FleetConfig,
    ) -> Result<SessionFleet, SegmentError> {
        let mut slots = Vec::with_capacity(fleet.slots);
        for _ in 0..fleet.slots {
            slots.push(Slot {
                session: SegmenterSession::try_new(config.clone(), width, height)?,
                stream: None,
                frames: 0,
                recovered: 0,
                latency: LatencyHistogram::log2(FRAME_LATENCY_EXP.0, FRAME_LATENCY_EXP.1),
            });
        }
        Ok(SessionFleet {
            config: config.clone(),
            fleet,
            width,
            height,
            slots,
            next_slot: 0,
            queue: VecDeque::with_capacity(fleet.queue_depth),
            queued_peak: 0,
            admitted: 0,
            rejected: 0,
            frames: 0,
            recovered: 0,
            closed: 0,
            frame_latency: LatencyHistogram::log2(FRAME_LATENCY_EXP.0, FRAME_LATENCY_EXP.1),
            queue_wait: LatencyHistogram::log2(QUEUE_WAIT_EXP.0, QUEUE_WAIT_EXP.1),
        })
    }

    /// Panicking convenience over [`SessionFleet::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn new(config: &Segmenter, width: usize, height: usize, fleet: FleetConfig) -> SessionFleet {
        match SessionFleet::try_new(config, width, height, fleet) {
            Ok(f) => f,
            Err(e) => raise(e),
        }
    }

    /// Frame width every slot is bound to.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height every slot is bound to.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The segmentation configuration all slots share.
    pub fn config(&self) -> &Segmenter {
        &self.config
    }

    /// The fleet sizing this pool was built with.
    pub fn fleet_config(&self) -> FleetConfig {
        self.fleet
    }

    fn active_streams(&self) -> usize {
        self.slots.iter().filter(|s| s.stream.is_some()).count()
    }

    /// The slot index `stream` is bound to, if any. Linear scan over the
    /// (small, preallocated) slot table — deterministic and
    /// allocation-free, unlike a hash map.
    fn slot_of(&self, stream: StreamId) -> Option<usize> {
        self.slots.iter().position(|s| s.stream == Some(stream))
    }

    /// Whether a frame for `stream` would be admitted right now (already
    /// bound, or a free slot exists).
    pub fn admissible(&self, stream: StreamId) -> bool {
        self.slot_of(stream).is_some() || self.slots.iter().any(|s| s.stream.is_none())
    }

    /// Binds `stream` to a slot, or returns its existing binding. New
    /// bindings scan free slots round-robin from the cursor; the chosen
    /// slot's session is [`SegmenterSession::reset`] so the new stream
    /// seeds cold instead of inheriting the departed stream's centers.
    fn admit(&mut self, stream: StreamId) -> Result<usize, FleetError> {
        if let Some(i) = self.slot_of(stream) {
            return Ok(i);
        }
        let n = self.slots.len();
        for k in 0..n {
            let i = (self.next_slot + k) % n;
            if self.slots[i].stream.is_none() {
                let slot = &mut self.slots[i];
                slot.stream = Some(stream);
                slot.frames = 0;
                slot.recovered = 0;
                slot.latency.reset();
                slot.session.reset();
                self.next_slot = (i + 1) % n;
                self.admitted += 1;
                return Ok(i);
            }
        }
        Err(FleetError::Saturated {
            streams: self.active_streams(),
            slots: n,
        })
    }

    /// Books a rejected admission: the fleet tally, and the
    /// `fleet.rejected` trace counter when a recorder is attached.
    fn note_rejected(&mut self, recorder: Option<&Recorder>) {
        self.rejected += 1;
        if let Some(rec) = recorder {
            rec.counter_add("fleet.rejected", 1);
        }
    }

    /// Books one finished frame into the fleet and per-stream tallies,
    /// the latency histograms, and the `fleet.*` trace counters when a
    /// recorder is attached. Allocation-free (it sits on the
    /// `try_run` hot path).
    fn note(&mut self, slot: usize, report: &FrameReport, latency: u64, recorder: Option<&Recorder>) {
        self.frames += 1;
        self.slots[slot].frames += 1;
        self.frame_latency.observe(latency);
        self.slots[slot].latency.observe(latency);
        let recovered = report.status() == SegmentationStatus::Recovered;
        if recovered {
            self.recovered += 1;
            self.slots[slot].recovered += 1;
        }
        if let Some(rec) = recorder {
            rec.counter_add("fleet.frames", 1);
            if recovered {
                rec.counter_add("fleet.recovered", 1);
            }
        }
    }

    /// The latency of one finished frame in the configured unit: elapsed
    /// wall-clock nanoseconds when a start stamp exists
    /// ([`FleetConfig::wallclock_latency`]), otherwise the frame's exact
    /// deterministic cost in distance-evaluation units.
    fn frame_latency_of(started: Option<Instant>, report: &FrameReport) -> u64 {
        match started {
            Some(t) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => report.counters().distance_calcs,
        }
    }

    /// The caller's options with the fleet-wide kernel preference folded
    /// in: a per-run [`RunOptions::kernel`] always wins, then
    /// [`FleetConfig::with_kernel`], then the params-level default.
    fn effective_options<'a>(&self, options: &RunOptions<'a>) -> RunOptions<'a> {
        let mut opts = *options;
        if opts.kernel.is_none() {
            opts.kernel = self.fleet.kernel;
        }
        opts
    }

    /// Segments one frame of `stream`, admitting the stream first if it
    /// has no slot yet. Bit-identical to running the same frames through
    /// a standalone session; allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Fleet`] ([`FleetError::Saturated`]) when no slot
    /// is free, plus every per-frame error of
    /// [`SegmenterSession::try_run`].
    pub fn try_run(
        &mut self,
        stream: StreamId,
        request: SegmentRequest<'_>,
        options: &RunOptions<'_>,
    ) -> Result<FrameReport, SegmentError> {
        let slot = match self.admit(stream) {
            Ok(i) => i,
            Err(e) => {
                self.note_rejected(options.recorder);
                return Err(SegmentError::Fleet(e));
            }
        };
        let started = self.fleet.wallclock_latency.then(Instant::now);
        let opts = self.effective_options(options);
        let report = self.slots[slot].session.try_run(request, &opts)?;
        let latency = Self::frame_latency_of(started, &report);
        self.note(slot, &report, latency, options.recorder);
        Ok(report)
    }

    /// Panicking convenience over [`SessionFleet::try_run`].
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn run(
        &mut self,
        stream: StreamId,
        request: SegmentRequest<'_>,
        options: &RunOptions<'_>,
    ) -> FrameReport {
        match self.try_run(stream, request, options) {
            Ok(report) => report,
            Err(e) => raise(e),
        }
    }

    /// Segments a batch of frames (possibly spanning many streams) into a
    /// caller-owned report vector, reusing its capacity — a steady-state
    /// batch through a warm `out` performs zero heap allocations on the
    /// default sequential schedule.
    ///
    /// The batch is all-or-nothing at admission: every frame's geometry,
    /// the warm-start length, and every stream's admission are validated
    /// before any frame runs, so an error never leaves partial output in
    /// `out` (streams admitted by a failed pre-pass do stay admitted).
    ///
    /// With [`FleetConfig::frame_workers`] > 1 and neither fault hooks
    /// nor a recorder attached, slots execute on scoped worker threads —
    /// each slot's frames still run in input order on a single thread, so
    /// the reports and every session's state are bit-identical to the
    /// sequential schedule. Fault hooks and recorders force the
    /// sequential path (their hooks are not shareable across threads, and
    /// a shared recorder would interleave trace events
    /// nondeterministically).
    ///
    /// # Errors
    ///
    /// Everything [`SessionFleet::try_run`] can return; on error `out` is
    /// left empty.
    pub fn try_run_batch_into(
        &mut self,
        frames: &[StreamFrame<'_>],
        options: &RunOptions<'_>,
        out: &mut Vec<FrameReport>,
    ) -> Result<(), SegmentError> {
        out.clear();
        let (w, h) = (self.width, self.height);
        for f in frames {
            let actual = request_dims(&f.request);
            if actual != (w, h) {
                return Err(SegmentError::GeometryMismatch {
                    expected: (w, h),
                    actual,
                });
            }
        }
        if let Some(warm) = options.warm_start {
            // All slots share one geometry, hence one realized grid.
            let expected = self.slots[0].session.clusters().len();
            if warm.len() != expected {
                return Err(SegmentError::WarmStartLen {
                    expected,
                    actual: warm.len(),
                });
            }
        }
        for f in frames {
            if let Err(e) = self.admit(f.stream) {
                self.note_rejected(options.recorder);
                return Err(SegmentError::Fleet(e));
            }
        }

        let parallel = self.fleet.frame_workers > 1
            && options.faults.is_none()
            && options.recorder.is_none()
            && frames.len() > 1;
        if !parallel {
            for f in frames {
                let slot = match self.admit(f.stream) {
                    Ok(i) => i,
                    // Unreachable: the pre-pass admitted every stream.
                    Err(e) => raise(SegmentError::Fleet(e)),
                };
                let started = self.fleet.wallclock_latency.then(Instant::now);
                let opts = self.effective_options(options);
                let report = self.slots[slot].session.try_run(f.request, &opts)?;
                let latency = Self::frame_latency_of(started, &report);
                self.note(slot, &report, latency, options.recorder);
                out.push(report);
            }
            return Ok(());
        }

        // Frame-parallel path: deal the active slots round-robin across
        // worker bins; each worker owns its slots exclusively and runs
        // their frames in input order. The per-batch plan/bin vectors
        // allocate — this opt-in path trades the zero-alloc contract for
        // wall-clock, which is why `frame_workers` defaults to 1.
        let mut jobs: Vec<Vec<usize>> = self.slots.iter().map(|_| Vec::new()).collect();
        for (i, f) in frames.iter().enumerate() {
            if let Some(slot) = self.slot_of(f.stream) {
                jobs[slot].push(i);
            }
        }
        let workers = self.fleet.frame_workers;
        let warm = options.warm_start;
        let recovery = options.recovery;
        let kernel = options.kernel.or(self.fleet.kernel);
        let wallclock = self.fleet.wallclock_latency;
        let mut bins: Vec<Vec<(&mut Slot, Vec<usize>)>> = (0..workers).map(|_| Vec::new()).collect();
        for (bin, work) in self
            .slots
            .iter_mut()
            .zip(jobs)
            .filter(|(_, idxs)| !idxs.is_empty())
            .enumerate()
        {
            bins[bin % workers].push(work);
        }
        let mut merged: Vec<(usize, FrameReport, u64)> = Vec::with_capacity(frames.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for bin in bins {
                if bin.is_empty() {
                    continue;
                }
                handles.push(scope.spawn(move || {
                    let mut done: Vec<(usize, FrameReport, u64)> = Vec::new();
                    for (slot, idxs) in bin {
                        for i in idxs {
                            // Rebuilt from the Sync parts of the caller's
                            // options (hooks were excluded above).
                            let mut opts = RunOptions::new();
                            if let Some(ws) = warm {
                                opts = opts.with_warm_start(ws);
                            }
                            if let Some(p) = recovery {
                                opts = opts.with_recovery(p);
                            }
                            if let Some(k) = kernel {
                                opts = opts.with_kernel(k);
                            }
                            let started = wallclock.then(Instant::now);
                            match slot.session.try_run(frames[i].request, &opts) {
                                Ok(report) => {
                                    let latency = Self::frame_latency_of(started, &report);
                                    slot.frames += 1;
                                    slot.latency.observe(latency);
                                    if report.status() == SegmentationStatus::Recovered {
                                        slot.recovered += 1;
                                    }
                                    done.push((i, report, latency));
                                }
                                // Unreachable: geometry, warm-start
                                // length, and admission were validated
                                // before dispatch.
                                Err(e) => raise(e),
                            }
                        }
                    }
                    done
                }));
            }
            for handle in handles {
                match handle.join() {
                    Ok(part) => merged.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        // Reports return in input order regardless of worker scheduling —
        // and the fleet-wide histogram folds in that same order, so the
        // telemetry bytes match the sequential schedule too.
        merged.sort_unstable_by_key(|(i, _, _)| *i);
        for (_, report, latency) in merged {
            self.frames += 1;
            self.frame_latency.observe(latency);
            if report.status() == SegmentationStatus::Recovered {
                self.recovered += 1;
            }
            out.push(report);
        }
        Ok(())
    }

    /// Allocating convenience over [`SessionFleet::try_run_batch_into`].
    ///
    /// # Errors
    ///
    /// See [`SessionFleet::try_run_batch_into`].
    pub fn try_run_batch(
        &mut self,
        frames: &[StreamFrame<'_>],
        options: &RunOptions<'_>,
    ) -> Result<Vec<FrameReport>, SegmentError> {
        let mut out = Vec::with_capacity(frames.len());
        self.try_run_batch_into(frames, options, &mut out)?;
        Ok(out)
    }

    /// Panicking convenience over [`SessionFleet::try_run_batch`].
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn run_batch(
        &mut self,
        frames: &[StreamFrame<'_>],
        options: &RunOptions<'_>,
    ) -> Vec<FrameReport> {
        match self.try_run_batch(frames, options) {
            Ok(reports) => reports,
            Err(e) => raise(e),
        }
    }

    /// Parks one frame in the admission queue (the backpressure relief
    /// valve for a saturated fleet). Returns the queue depth after the
    /// push. The queue owns the image; frames leave it in arrival order
    /// via [`SessionFleet::pop_admissible`] / [`SessionFleet::drain`].
    ///
    /// # Errors
    ///
    /// [`SegmentError::GeometryMismatch`] for a mis-sized frame;
    /// [`SegmentError::Fleet`] ([`FleetError::QueueFull`]) at capacity —
    /// which also counts as an admission rejection in
    /// [`SessionFleet::stats`].
    pub fn try_enqueue(
        &mut self,
        stream: StreamId,
        image: RgbImage,
    ) -> Result<usize, SegmentError> {
        let actual = (image.width(), image.height());
        if actual != (self.width, self.height) {
            return Err(SegmentError::GeometryMismatch {
                expected: (self.width, self.height),
                actual,
            });
        }
        if self.queue.len() >= self.fleet.queue_depth {
            self.rejected += 1;
            return Err(SegmentError::Fleet(FleetError::QueueFull {
                depth: self.fleet.queue_depth,
            }));
        }
        self.queue.push_back(Pending {
            stream,
            image,
            enqueued_frame: self.frames,
            enqueued_at: self.fleet.wallclock_latency.then(Instant::now),
        });
        self.queued_peak = self.queued_peak.max(self.queue.len() as u64);
        Ok(self.queue.len())
    }

    /// Removes and returns the first queued frame that could run right
    /// now (its stream is bound, or a slot is free). Other frames keep
    /// their arrival order. The frame's queue wait — fleet frames
    /// segmented while it was parked, or elapsed nanos in
    /// wallclock-latency mode — lands in the queue-wait histogram.
    pub fn pop_admissible(&mut self) -> Option<(StreamId, RgbImage)> {
        let at = self
            .queue
            .iter()
            .position(|p| self.admissible(p.stream))?;
        let p = self.queue.remove(at)?;
        let wait = match p.enqueued_at {
            Some(t) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => self.frames.saturating_sub(p.enqueued_frame),
        };
        self.queue_wait.observe(wait);
        Some((p.stream, p.image))
    }

    /// Runs every currently admissible queued frame (in arrival order,
    /// re-checking admissibility as slots bind), handing each report to
    /// `sink`. Returns the number of frames drained.
    ///
    /// # Errors
    ///
    /// Propagates the first per-frame error; already-drained frames stay
    /// drained.
    pub fn drain(
        &mut self,
        options: &RunOptions<'_>,
        mut sink: impl FnMut(StreamId, FrameReport),
    ) -> Result<u64, SegmentError> {
        let mut drained = 0u64;
        while let Some((stream, image)) = self.pop_admissible() {
            let report = self.try_run(stream, SegmentRequest::Rgb(&image), options)?;
            sink(stream, report);
            drained += 1;
        }
        Ok(drained)
    }

    /// Unbinds `stream`, freeing its slot for the next admission. Returns
    /// whether the stream was bound. Queued frames of the stream stay
    /// queued (they re-admit into a free slot on the next drain).
    pub fn close(&mut self, stream: StreamId) -> bool {
        match self.slot_of(stream) {
            Some(i) => {
                self.slots[i].stream = None;
                self.closed += 1;
                true
            }
            None => false,
        }
    }

    /// Fleet-level totals since construction.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            frames: self.frames,
            recovered: self.recovered,
            admitted: self.admitted,
            rejected: self.rejected,
            queue_depth: self.queue.len() as u64,
            queued_peak: self.queued_peak,
            active_streams: self.active_streams() as u64,
            closed: self.closed,
        }
    }

    /// The fleet-wide frame-latency histogram (unit per
    /// [`FleetConfig::wallclock_latency`]).
    pub fn frame_latency(&self) -> &LatencyHistogram {
        &self.frame_latency
    }

    /// The fleet-wide queue-wait histogram.
    pub fn queue_wait(&self) -> &LatencyHistogram {
        &self.queue_wait
    }

    /// The per-stream frame-latency histogram, if the stream is bound.
    pub fn stream_latency(&self, stream: StreamId) -> Option<&LatencyHistogram> {
        self.slot_of(stream).map(|i| &self.slots[i].latency)
    }

    /// Deterministic p50/p90/p99 estimates of the fleet-wide frame
    /// latency (all 0 before the first frame).
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        (
            self.frame_latency.percentile(50).unwrap_or(0),
            self.frame_latency.percentile(90).unwrap_or(0),
            self.frame_latency.percentile(99).unwrap_or(0),
        )
    }

    /// Snapshots the fleet's telemetry into a [`MetricsRegistry`]:
    /// `sslic_fleet_*` counters and gauges, the fleet-wide frame-latency
    /// and queue-wait histograms, and per-stream `sslic_stream_*` series
    /// labeled `{stream="<id>"}` for every bound stream. Built off the
    /// frame path (it allocates); every value is deterministic unless
    /// wallclock latency is armed, so the Prometheus exposition rendered
    /// from it is byte-identical across thread counts.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("sslic_fleet_frames_total", self.frames);
        m.counter_add("sslic_fleet_recovered_total", self.recovered);
        m.counter_add("sslic_fleet_admitted_total", self.admitted);
        m.counter_add("sslic_fleet_rejected_total", self.rejected);
        m.counter_add("sslic_fleet_closed_total", self.closed);
        let to_gauge = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let active = self.active_streams() as u64;
        let slots = self.slots.len() as u64;
        m.gauge_set("sslic_fleet_active_streams", to_gauge(active));
        m.gauge_set("sslic_fleet_slots", to_gauge(slots));
        m.gauge_set("sslic_fleet_queue_depth", to_gauge(self.queue.len() as u64));
        m.gauge_set("sslic_fleet_queued_peak", to_gauge(self.queued_peak));
        // Slot occupancy in permille: integer-exact, no float formatting.
        let saturation = if slots == 0 { 0 } else { active * 1000 / slots };
        m.gauge_set("sslic_fleet_saturation_permille", to_gauge(saturation));
        m.histogram_insert(
            "sslic_fleet_frame_latency",
            self.frame_latency.histogram().clone(),
        );
        m.histogram_insert("sslic_fleet_queue_wait", self.queue_wait.histogram().clone());
        for slot in &self.slots {
            let Some(stream) = slot.stream else { continue };
            let sid = stream.to_string();
            let labels: [(&str, &str); 1] = [("stream", &sid)];
            m.counter_add(
                &telemetry::label("sslic_stream_frames_total", &labels),
                slot.frames,
            );
            m.counter_add(
                &telemetry::label("sslic_stream_recovered_total", &labels),
                slot.recovered,
            );
            m.histogram_insert(
                &telemetry::label("sslic_stream_frame_latency", &labels),
                slot.latency.histogram().clone(),
            );
        }
        m
    }

    /// The fleet's telemetry as a serializable `sslic-telemetry-v1`
    /// snapshot (per-histogram p50/p90/p99 included).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::from_registry(&self.metrics_registry())
    }

    /// Per-stream tallies, if the stream is currently bound.
    pub fn stream_stats(&self, stream: StreamId) -> Option<StreamStats> {
        self.slot_of(stream).map(|i| StreamStats {
            frames: self.slots[i].frames,
            recovered: self.slots[i].recovered,
        })
    }

    /// The label map of `stream`'s most recent frame, if bound.
    pub fn stream_labels(&self, stream: StreamId) -> Option<&Plane<u32>> {
        self.slot_of(stream).map(|i| self.slots[i].session.labels())
    }

    /// The current cluster centers of `stream` (its warm-start state), if
    /// bound.
    pub fn stream_clusters(&self, stream: StreamId) -> Option<&[Cluster]> {
        self.slot_of(stream)
            .map(|i| self.slots[i].session.clusters())
    }

    /// Consumes the fleet, assembling a full [`Segmentation`] from
    /// `stream`'s most recent frame. `report` must be that frame's
    /// [`FrameReport`]; see [`SegmenterSession::into_segmentation`].
    /// Returns `None` when the stream is not bound.
    pub fn into_segmentation(
        mut self,
        stream: StreamId,
        report: FrameReport,
    ) -> Option<Segmentation> {
        let i = self.slot_of(stream)?;
        let slot = self.slots.swap_remove(i);
        Some(slot.session.into_segmentation(report))
    }

    /// Builds a [`RunReport`] for `stream`'s most recent frame, extended
    /// with the per-stream fleet section (`fleet.*`): stream id, frames,
    /// recovered frames, live queue depth, admission rejections, and the
    /// FNV-1a checksum of the stream's label map. Returns `None` when the
    /// stream is not bound.
    ///
    /// With `deterministic = true` the phase timings are zeroed so the
    /// report bytes are a pure function of the workload (the form the
    /// `serve` determinism gate byte-diffs, modulo the `threads` field).
    pub fn run_report(
        &self,
        stream: StreamId,
        report: &FrameReport,
        deterministic: bool,
    ) -> Option<RunReport> {
        let i = self.slot_of(stream)?;
        let slot = &self.slots[i];
        let mut run = crate::report::frame_run_report(&self.config, report, deterministic);
        run.width = self.width as u64;
        run.height = self.height as u64;
        run.fleet = Some(ReportFleet {
            stream: stream.0,
            frames: slot.frames,
            recovered: slot.recovered,
            queue_depth: self.queue.len() as u64,
            rejected: self.rejected,
            label_checksum: label_checksum(slot.session.labels()),
        });
        Some(run)
    }
}

/// FNV-1a over a label plane, the fleet's per-stream output fingerprint
/// (the same fold `tests/bench_seed.rs` pins in `BENCH_SEED.json`).
pub fn label_checksum(labels: &Plane<u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in labels.iter() {
        h ^= u64::from(l);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// --- the serve wire protocol ----------------------------------------------

/// Wire opcode: one frame follows — `stream: u64 LE`, `len: u32 LE`, then
/// `len` bytes of binary PPM (P6).
pub const WIRE_FRAME: u8 = 0x01;

/// Wire opcode: close a stream — `stream: u64 LE` follows. Frees the
/// stream's slot and drains admissible queued frames.
pub const WIRE_CLOSE: u8 = 0x02;

/// Wire opcode: telemetry request — no payload. [`serve`] replies with an
/// `sslic-serve-stats-v1` line carrying the fleet's Prometheus text
/// exposition.
pub const WIRE_STATS: u8 = 0x03;

/// Hard cap on a frame payload (64 MiB), rejecting absurd length prefixes
/// before any buffer grows.
pub const WIRE_MAX_PAYLOAD: usize = 1 << 26;

/// Encodes one [`WIRE_FRAME`] record.
///
/// # Errors
///
/// Any I/O error of `w`, plus a payload larger than
/// [`WIRE_MAX_PAYLOAD`].
pub fn write_wire_frame<W: Write>(
    w: &mut W,
    stream: StreamId,
    payload: &[u8],
) -> Result<(), String> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if payload.len() <= WIRE_MAX_PAYLOAD => len,
        _ => {
            return Err(format!(
                "frame payload of {} bytes exceeds the {WIRE_MAX_PAYLOAD}-byte wire cap",
                payload.len()
            ))
        }
    };
    let io = |e: std::io::Error| format!("wire write failed: {e}");
    w.write_all(&[WIRE_FRAME]).map_err(io)?;
    w.write_all(&stream.0.to_le_bytes()).map_err(io)?;
    w.write_all(&len.to_le_bytes()).map_err(io)?;
    w.write_all(payload).map_err(io)
}

/// Encodes one [`WIRE_CLOSE`] record.
///
/// # Errors
///
/// Any I/O error of `w`.
pub fn write_wire_close<W: Write>(w: &mut W, stream: StreamId) -> Result<(), String> {
    let io = |e: std::io::Error| format!("wire write failed: {e}");
    w.write_all(&[WIRE_CLOSE]).map_err(io)?;
    w.write_all(&stream.0.to_le_bytes()).map_err(io)
}

/// Encodes one [`WIRE_STATS`] record (a single opcode byte).
///
/// # Errors
///
/// Any I/O error of `w`.
pub fn write_wire_stats<W: Write>(w: &mut W) -> Result<(), String> {
    w.write_all(&[WIRE_STATS])
        .map_err(|e| format!("wire write failed: {e}"))
}

/// Reads one opcode byte, or `None` at a clean end of stream (EOF is only
/// legal at a record boundary).
fn read_opcode<R: Read>(r: &mut R) -> Result<Option<u8>, String> {
    let mut b = [0u8; 1];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(b[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("serve: read failed: {e}")),
        }
    }
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, String> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)
        .map_err(|e| format!("serve: truncated record: {e}"))?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, String> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)
        .map_err(|e| format!("serve: truncated record: {e}"))?;
    Ok(u32::from_le_bytes(b))
}

/// Options of one [`serve`] pump.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions<'a> {
    /// Self-healing policy armed on every stream (see
    /// [`RunOptions::recovery`]).
    pub recovery: Option<&'a RecoveryPolicy>,
    /// Emit real phase timings instead of deterministic zeros.
    pub wallclock: bool,
    /// Emit an `sslic-serve-heartbeat-v1` line after every N segmented
    /// frames (0 = off).
    pub heartbeat_every: u64,
    /// Dump the fleet's Prometheus exposition to this path at end of
    /// input.
    pub metrics_path: Option<&'a str>,
}

impl<'a> ServeOptions<'a> {
    /// Default serve options: no recovery, deterministic reports.
    pub fn new() -> Self {
        ServeOptions::default()
    }

    /// Arms a recovery policy on every stream.
    pub fn with_recovery(mut self, policy: &'a RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Emits wall-clock phase timings (reports are no longer
    /// byte-reproducible).
    pub fn with_wallclock(mut self, wallclock: bool) -> Self {
        self.wallclock = wallclock;
        self
    }

    /// Emits a heartbeat line after every `every` segmented frames
    /// (0 disables the heartbeat).
    pub fn with_heartbeat(mut self, every: u64) -> Self {
        self.heartbeat_every = every;
        self
    }

    /// Writes the fleet's Prometheus exposition to `path` at end of
    /// input.
    pub fn with_metrics_file(mut self, path: &'a str) -> Self {
        self.metrics_path = Some(path);
        self
    }
}

/// What one [`serve`] pump processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Frames segmented (including drained queued frames).
    pub frames: u64,
    /// Of those, frames that healed via recovery.
    pub recovered: u64,
    /// Frames rejected (saturated + queue full + bad payloads).
    pub rejected: u64,
    /// High-water mark of the admission queue.
    pub queued_peak: u64,
    /// Streams closed by [`WIRE_CLOSE`] records.
    pub closed: u64,
}

fn emit<W: Write>(out: &mut W, line: &str) -> Result<(), String> {
    writeln!(out, "{line}").map_err(|e| format!("serve: write failed: {e}"))
}

/// Runs one admissible frame through the fleet, emits its report line,
/// folds it into the summary, and emits a heartbeat when one is due.
fn pump_one<W: Write>(
    fl: &mut SessionFleet,
    stream: StreamId,
    image: &RgbImage,
    run_options: &RunOptions<'_>,
    deterministic: bool,
    heartbeat_every: u64,
    summary: &mut ServeSummary,
    out: &mut W,
) -> Result<(), String> {
    let report = fl
        .try_run(stream, SegmentRequest::Rgb(image), run_options)
        .map_err(|e| format!("serve: {e}"))?;
    summary.frames += 1;
    if report.status() == SegmentationStatus::Recovered {
        summary.recovered += 1;
    }
    if let Some(run) = fl.run_report(stream, &report, deterministic) {
        emit(out, &run.to_json())?;
    }
    if heartbeat_every != 0 && summary.frames % heartbeat_every == 0 {
        emit_heartbeat(out, fl, summary)?;
    }
    Ok(())
}

/// Emits one `sslic-serve-heartbeat-v1` line: liveness tallies plus the
/// fleet-wide frame-latency percentiles. In deterministic mode every
/// field is a pure function of the frames pumped so far, so heartbeat
/// bytes are identical across worker-thread counts.
fn emit_heartbeat<W: Write>(
    out: &mut W,
    fl: &SessionFleet,
    summary: &ServeSummary,
) -> Result<(), String> {
    let stats = fl.stats();
    let (p50, p90, p99) = fl.latency_percentiles();
    emit(
        out,
        &format!(
            "{{\"schema\":\"sslic-serve-heartbeat-v1\",\"frames\":{},\"recovered\":{},\
             \"rejected\":{},\"queue_depth\":{},\"active_streams\":{},\
             \"frame_latency_p50\":{p50},\"frame_latency_p90\":{p90},\
             \"frame_latency_p99\":{p99}}}",
            summary.frames,
            summary.recovered,
            summary.rejected,
            stats.queue_depth,
            stats.active_streams
        ),
    )
}

/// Pumps the length-prefixed frame protocol from `input` to completion,
/// emitting one JSON line per event on `out`: a full [`RunReport`]
/// (schema `sslic-run-report-v2`, with the `fleet` section) per segmented
/// frame, `sslic-serve-queued-v1` / `sslic-serve-reject-v1` lines for
/// parked and refused frames, an `sslic-serve-close-v1` line per closed
/// stream, an `sslic-serve-stats-v1` line (carrying the fleet's
/// Prometheus text exposition) per [`WIRE_STATS`] request, optional
/// `sslic-serve-heartbeat-v1` lines every
/// [`ServeOptions::heartbeat_every`] frames, and a final
/// `sslic-serve-summary-v2` line at EOF with the fleet-wide
/// frame-latency p50/p90/p99. With
/// [`ServeOptions::metrics_path`] set, the raw exposition is also
/// written to that file at end of input.
///
/// The fleet is sized by `fleet`, configured by `config`, and built
/// lazily from the first frame's geometry; later frames of a different
/// geometry are rejected, not resized. Every emitted byte is a pure
/// function of the input records (given `wallclock` off), except the
/// `"threads"` field inside each report — which is why the CI gate
/// sed-normalises exactly that field before byte-comparing 1-thread
/// against 4-thread output. Stats, heartbeat, and summary lines carry no
/// thread-dependent field at all, so they — and the metrics file — are
/// byte-identical across thread counts without normalisation.
///
/// # Errors
///
/// I/O failures and malformed records (truncation, unknown opcodes,
/// over-cap payloads) abort the pump with a message; malformed *frame
/// pixels* (unparseable PPM) only reject that frame.
pub fn serve<R: Read, W: Write>(
    config: &Segmenter,
    fleet: FleetConfig,
    input: &mut R,
    out: &mut W,
    opts: &ServeOptions<'_>,
) -> Result<ServeSummary, String> {
    let deterministic = !opts.wallclock;
    let fleet = fleet.with_wallclock_latency(opts.wallclock);
    let mut pool: Option<SessionFleet> = None;
    let mut payload: Vec<u8> = Vec::new();
    let mut summary = ServeSummary::default();
    let run_options = {
        let mut ro = RunOptions::new();
        if let Some(p) = opts.recovery {
            ro = ro.with_recovery(p);
        }
        ro
    };
    while let Some(op) = read_opcode(input)? {
        match op {
            WIRE_FRAME => {
                let stream = StreamId(read_u64(input)?);
                let len = read_u32(input)? as usize;
                if len > WIRE_MAX_PAYLOAD {
                    return Err(format!(
                        "serve: frame payload of {len} bytes exceeds the \
                         {WIRE_MAX_PAYLOAD}-byte wire cap"
                    ));
                }
                payload.resize(len, 0);
                input
                    .read_exact(&mut payload)
                    .map_err(|e| format!("serve: truncated frame payload: {e}"))?;
                let image = match ppm::read_ppm(&payload[..]) {
                    Ok(img) => img,
                    Err(_) => {
                        summary.rejected += 1;
                        emit(
                            out,
                            &format!(
                                "{{\"schema\":\"sslic-serve-reject-v1\",\"stream\":{stream},\
                                 \"error\":\"bad-frame\"}}"
                            ),
                        )?;
                        continue;
                    }
                };
                if pool.is_none() {
                    match SessionFleet::try_new(config, image.width(), image.height(), fleet) {
                        Ok(fl) => pool = Some(fl),
                        Err(e) => return Err(format!("serve: {e}")),
                    }
                }
                let Some(fl) = pool.as_mut() else { break };
                if (image.width(), image.height()) != (fl.width(), fl.height()) {
                    summary.rejected += 1;
                    emit(
                        out,
                        &format!(
                            "{{\"schema\":\"sslic-serve-reject-v1\",\"stream\":{stream},\
                             \"error\":\"geometry\"}}"
                        ),
                    )?;
                    continue;
                }
                if fl.admissible(stream) {
                    pump_one(
                        fl,
                        stream,
                        &image,
                        &run_options,
                        deterministic,
                        opts.heartbeat_every,
                        &mut summary,
                        out,
                    )?;
                } else {
                    match fl.try_enqueue(stream, image) {
                        Ok(depth) => emit(
                            out,
                            &format!(
                                "{{\"schema\":\"sslic-serve-queued-v1\",\"stream\":{stream},\
                                 \"depth\":{depth}}}"
                            ),
                        )?,
                        Err(_) => {
                            summary.rejected += 1;
                            emit(
                                out,
                                &format!(
                                    "{{\"schema\":\"sslic-serve-reject-v1\",\"stream\":{stream},\
                                     \"error\":\"saturated\"}}"
                                ),
                            )?;
                        }
                    }
                }
            }
            WIRE_CLOSE => {
                let stream = StreamId(read_u64(input)?);
                let mut drained = 0u64;
                if let Some(fl) = pool.as_mut() {
                    if fl.close(stream) {
                        summary.closed += 1;
                    }
                    while let Some((s, img)) = fl.pop_admissible() {
                        pump_one(
                            fl,
                            s,
                            &img,
                            &run_options,
                            deterministic,
                            opts.heartbeat_every,
                            &mut summary,
                            out,
                        )?;
                        drained += 1;
                    }
                }
                emit(
                    out,
                    &format!(
                        "{{\"schema\":\"sslic-serve-close-v1\",\"stream\":{stream},\
                         \"drained\":{drained}}}"
                    ),
                )?;
            }
            WIRE_STATS => {
                let exposition = match pool.as_ref() {
                    Some(fl) => telemetry::render_prometheus(&fl.metrics_registry()),
                    None => String::new(),
                };
                emit(
                    out,
                    &format!(
                        "{{\"schema\":\"sslic-serve-stats-v1\",\"exposition\":\"{}\"}}",
                        escape_json(&exposition)
                    ),
                )?;
            }
            other => return Err(format!("serve: unknown wire opcode 0x{other:02x}")),
        }
    }
    if let Some(fl) = pool.as_mut() {
        while let Some((s, img)) = fl.pop_admissible() {
            pump_one(
                fl,
                s,
                &img,
                &run_options,
                deterministic,
                opts.heartbeat_every,
                &mut summary,
                out,
            )?;
        }
        summary.queued_peak = fl.stats().queued_peak;
    }
    if let Some(path) = opts.metrics_path {
        let exposition = match pool.as_ref() {
            Some(fl) => telemetry::render_prometheus(&fl.metrics_registry()),
            None => String::new(),
        };
        std::fs::write(path, exposition)
            .map_err(|e| format!("serve: cannot write metrics file {path}: {e}"))?;
    }
    let (p50, p90, p99) = pool
        .as_ref()
        .map(|fl| fl.latency_percentiles())
        .unwrap_or((0, 0, 0));
    emit(
        out,
        &format!(
            "{{\"schema\":\"sslic-serve-summary-v2\",\"frames\":{},\"recovered\":{},\
             \"rejected\":{},\"queued_peak\":{},\"closed\":{},\
             \"frame_latency_p50\":{p50},\"frame_latency_p90\":{p90},\
             \"frame_latency_p99\":{p99}}}",
            summary.frames, summary.recovered, summary.rejected, summary.queued_peak, summary.closed
        ),
    )?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlicParams;
    use sslic_image::synthetic::SyntheticImage;
    use sslic_obs::Histogram;

    fn segmenter() -> Segmenter {
        Segmenter::sslic_ppa(SlicParams::builder(48).iterations(3).build(), 2)
    }

    fn img(seed: u64) -> SyntheticImage {
        SyntheticImage::builder(64, 48).seed(seed).regions(5).build()
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            FleetConfig::builder().with_slots(0).try_build(),
            Err(FleetError::ZeroSlots)
        );
        assert_eq!(
            FleetConfig::builder().with_frame_workers(0).try_build(),
            Err(FleetError::ZeroWorkers)
        );
        let cfg = FleetConfig::builder()
            .with_slots(3)
            .with_queue_depth(5)
            .with_frame_workers(2)
            .build();
        assert_eq!((cfg.slots(), cfg.queue_depth(), cfg.frame_workers()), (3, 5, 2));
        assert_eq!(FleetConfig::default().slots(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn builder_build_panics_with_the_display_message() {
        let _ = FleetConfig::builder().with_slots(0).build();
    }

    #[test]
    fn round_robin_admission_is_deterministic() {
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(1);
        fleet.run(StreamId(10), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        fleet.run(StreamId(20), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        // Saturated: a third stream is refused, observably.
        let err = fleet
            .try_run(StreamId(30), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new())
            .unwrap_err();
        assert_eq!(
            err,
            SegmentError::Fleet(FleetError::Saturated { streams: 2, slots: 2 })
        );
        assert_eq!(fleet.stats().rejected, 1);
        // Closing stream 10 frees exactly its slot; the next admission
        // reuses it (cursor continuity keeps the choice deterministic).
        assert!(fleet.close(StreamId(10)));
        assert!(!fleet.close(StreamId(10)));
        fleet.run(StreamId(30), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        assert_eq!(fleet.stats().active_streams, 2);
        assert_eq!(fleet.stream_stats(StreamId(30)).map(|s| s.frames), Some(1));
        assert_eq!(fleet.stream_stats(StreamId(10)), None);
    }

    #[test]
    fn rebinding_a_slot_seeds_cold_like_a_fresh_session() {
        let seg = segmenter();
        let cfg = FleetConfig::builder().with_slots(1).build();
        let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
        let a = img(1);
        let b = img(2);
        // Stream 0 warms the lone slot, then departs.
        fleet.run(StreamId(0), SegmentRequest::Rgb(&a.rgb), &RunOptions::new());
        fleet.close(StreamId(0));
        // Stream 1's first frame must match a cold standalone session,
        // not inherit stream 0's converged centers.
        fleet.run(StreamId(1), SegmentRequest::Rgb(&b.rgb), &RunOptions::new());
        let mut fresh = seg.session(64, 48);
        fresh.run(SegmentRequest::Rgb(&b.rgb), &RunOptions::new());
        assert_eq!(
            fleet.stream_labels(StreamId(1)).map(Plane::as_slice),
            Some(fresh.labels().as_slice())
        );
    }

    #[test]
    fn queue_holds_frames_until_a_slot_frees() {
        let cfg = FleetConfig::builder().with_slots(1).with_queue_depth(2).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(3);
        fleet.run(StreamId(0), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        assert!(!fleet.admissible(StreamId(1)));
        assert_eq!(fleet.try_enqueue(StreamId(1), frame.rgb.clone()), Ok(1));
        assert_eq!(fleet.try_enqueue(StreamId(2), frame.rgb.clone()), Ok(2));
        let err = fleet.try_enqueue(StreamId(3), frame.rgb.clone()).unwrap_err();
        assert_eq!(err, SegmentError::Fleet(FleetError::QueueFull { depth: 2 }));
        assert_eq!(fleet.stats().queued_peak, 2);
        // Nothing admissible while the slot is bound elsewhere…
        assert!(fleet.pop_admissible().is_none());
        // …until the stream closes: the drain then runs both in order.
        fleet.close(StreamId(0));
        let mut order = Vec::new();
        let drained = fleet
            .drain(&RunOptions::new(), |s, _| order.push(s))
            .expect("drain");
        // Queue order is 1 then 2, but only one slot exists: 1 drains,
        // binds the slot, and 2 stays queued (inadmissible again).
        assert_eq!(drained, 1);
        assert_eq!(order, vec![StreamId(1)]);
        assert_eq!(fleet.stats().queue_depth, 1);
    }

    #[test]
    fn wire_records_round_trip() {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, StreamId(7), b"pixels").expect("frame");
        write_wire_close(&mut buf, StreamId(7)).expect("close");
        let mut r: &[u8] = &buf;
        assert_eq!(read_opcode(&mut r), Ok(Some(WIRE_FRAME)));
        assert_eq!(read_u64(&mut r), Ok(7));
        assert_eq!(read_u32(&mut r), Ok(6));
        let mut payload = [0u8; 6];
        r.read_exact(&mut payload).expect("payload");
        assert_eq!(&payload, b"pixels");
        assert_eq!(read_opcode(&mut r), Ok(Some(WIRE_CLOSE)));
        assert_eq!(read_u64(&mut r), Ok(7));
        assert_eq!(read_opcode(&mut r), Ok(None));
    }

    #[test]
    fn serve_smoke_emits_reports_and_summary() {
        let seg = segmenter();
        let mut stream_bytes = Vec::new();
        for (s, seed) in [(0u64, 1u64), (1, 2), (0, 3)] {
            let mut ppm_bytes = Vec::new();
            ppm::write_ppm(&mut ppm_bytes, &img(seed).rgb).expect("encode");
            write_wire_frame(&mut stream_bytes, StreamId(s), &ppm_bytes).expect("frame");
        }
        write_wire_close(&mut stream_bytes, StreamId(0)).expect("close");
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut out = Vec::new();
        let summary = serve(
            &seg,
            cfg,
            &mut &stream_bytes[..],
            &mut out,
            &ServeOptions::new(),
        )
        .expect("serve");
        assert_eq!(summary.frames, 3);
        assert_eq!(summary.closed, 1);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // 3 reports + 1 close ack + 1 summary.
        assert_eq!(lines.len(), 5);
        let report = RunReport::from_json(lines[0]).expect("report line parses");
        let fleet_section = report.fleet.expect("fleet section present");
        assert_eq!(fleet_section.stream, 0);
        assert_eq!(fleet_section.frames, 1);
        assert!(lines[3].contains("sslic-serve-close-v1"));
        assert!(lines[4].contains("sslic-serve-summary-v2"));
        assert!(lines[4].contains("\"frames\":3"));
        assert!(lines[4].contains("\"frame_latency_p50\":"));
    }

    #[test]
    fn wire_stats_round_trips() {
        let mut buf = Vec::new();
        write_wire_stats(&mut buf).expect("stats");
        let mut r: &[u8] = &buf;
        assert_eq!(read_opcode(&mut r), Ok(Some(WIRE_STATS)));
        assert_eq!(read_opcode(&mut r), Ok(None));
    }

    #[test]
    fn serve_answers_stats_with_prometheus_exposition() {
        let seg = segmenter();
        let mut stream_bytes = Vec::new();
        // A stats request before any frame: empty exposition, no pool yet.
        write_wire_stats(&mut stream_bytes).expect("stats");
        for (s, seed) in [(0u64, 1u64), (1, 2)] {
            let mut ppm_bytes = Vec::new();
            ppm::write_ppm(&mut ppm_bytes, &img(seed).rgb).expect("encode");
            write_wire_frame(&mut stream_bytes, StreamId(s), &ppm_bytes).expect("frame");
        }
        write_wire_stats(&mut stream_bytes).expect("stats");
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut out = Vec::new();
        serve(
            &seg,
            cfg,
            &mut &stream_bytes[..],
            &mut out,
            &ServeOptions::new(),
        )
        .expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let stats: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("sslic-serve-stats-v1"))
            .collect();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].contains("\"exposition\":\"\""));
        assert!(stats[1].contains("sslic_fleet_frames_total 2"));
        assert!(stats[1].contains("sslic_fleet_frame_latency_bucket"));
        assert!(stats[1].contains("le=\\\"+Inf\\\""));
        assert!(stats[1].contains("sslic_stream_frames_total{stream=\\\"0\\\"} 1"));
    }

    #[test]
    fn serve_heartbeat_fires_every_n_frames() {
        let seg = segmenter();
        let mut stream_bytes = Vec::new();
        for seed in 1u64..=4 {
            let mut ppm_bytes = Vec::new();
            ppm::write_ppm(&mut ppm_bytes, &img(seed).rgb).expect("encode");
            write_wire_frame(&mut stream_bytes, StreamId(0), &ppm_bytes).expect("frame");
        }
        let cfg = FleetConfig::builder().with_slots(1).build();
        let mut out = Vec::new();
        serve(
            &seg,
            cfg,
            &mut &stream_bytes[..],
            &mut out,
            &ServeOptions::new().with_heartbeat(2),
        )
        .expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let beats: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("sslic-serve-heartbeat-v1"))
            .collect();
        assert_eq!(beats.len(), 2);
        assert!(beats[0].contains("\"frames\":2"));
        assert!(beats[1].contains("\"frames\":4"));
        assert!(beats[1].contains("\"frame_latency_p99\":"));
    }

    #[test]
    fn fleet_telemetry_tracks_latency_and_queue_wait() {
        let cfg = FleetConfig::builder().with_slots(1).with_queue_depth(2).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(1);
        fleet.run(StreamId(0), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        fleet.run(StreamId(0), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        assert_eq!(fleet.frame_latency().count(), 2);
        // Deterministic latency unit is the frame's distance_calcs: > 0
        // for any real frame, so every percentile estimate is > 0 too.
        let (p50, p90, p99) = fleet.latency_percentiles();
        assert!(p50 > 0 && p50 <= p90 && p90 <= p99);
        assert_eq!(fleet.stream_latency(StreamId(0)).map(LatencyHistogram::count), Some(2));
        assert_eq!(fleet.stream_latency(StreamId(9)).map(LatencyHistogram::count), None);
        // Park a frame for a second stream, then free the slot and drain:
        // the queue-wait histogram sees exactly one observation.
        fleet
            .try_enqueue(StreamId(1), frame.rgb.clone())
            .expect("enqueue");
        assert_eq!(fleet.queue_wait().count(), 0);
        fleet.close(StreamId(0));
        fleet.drain(&RunOptions::new(), |_, _| {}).expect("drain");
        assert_eq!(fleet.queue_wait().count(), 1);
        let m = fleet.metrics_registry();
        assert_eq!(m.counter("sslic_fleet_frames_total"), 3);
        assert_eq!(m.counter("sslic_fleet_closed_total"), 1);
        assert_eq!(m.gauge("sslic_fleet_saturation_permille"), Some(1000));
        assert_eq!(
            m.histogram("sslic_fleet_frame_latency").map(Histogram::count),
            Some(3)
        );
        let snap = fleet.telemetry_snapshot();
        assert!(snap.histograms.iter().any(|h| h.name == "sslic_fleet_queue_wait"));
    }

    #[test]
    fn rebinding_a_slot_resets_its_latency_histogram() {
        let cfg = FleetConfig::builder().with_slots(1).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(1);
        fleet.run(StreamId(0), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        assert_eq!(fleet.stream_latency(StreamId(0)).map(LatencyHistogram::count), Some(1));
        fleet.close(StreamId(0));
        fleet.run(StreamId(1), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        // Stream 1 inherits the slot but not stream 0's observations.
        assert_eq!(fleet.stream_latency(StreamId(1)).map(LatencyHistogram::count), Some(1));
        // The fleet-wide histogram keeps everything.
        assert_eq!(fleet.frame_latency().count(), 2);
    }

    #[test]
    fn batch_matches_streams_run_one_by_one() {
        let seg = segmenter();
        let imgs: Vec<SyntheticImage> = (0..6).map(img).collect();
        // Interleaved 2-stream batch.
        let frames: Vec<StreamFrame<'_>> = imgs
            .iter()
            .enumerate()
            .map(|(i, im)| StreamFrame::new(StreamId(i as u64 % 2), SegmentRequest::Rgb(&im.rgb)))
            .collect();
        for workers in [1usize, 4] {
            let cfg = FleetConfig::builder()
                .with_slots(2)
                .with_frame_workers(workers)
                .build();
            let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
            let reports = fleet.run_batch(&frames, &RunOptions::new());
            assert_eq!(reports.len(), 6);
            // Reference: one standalone session per stream.
            for stream in 0..2u64 {
                let mut session = seg.session(64, 48);
                for (i, im) in imgs.iter().enumerate() {
                    if i as u64 % 2 != stream {
                        continue;
                    }
                    let reference = session.run(SegmentRequest::Rgb(&im.rgb), &RunOptions::new());
                    assert_eq!(
                        reports[i].counters(),
                        reference.counters(),
                        "workers={workers} frame {i}"
                    );
                }
                assert_eq!(
                    fleet.stream_labels(StreamId(stream)).map(Plane::as_slice),
                    Some(session.labels().as_slice()),
                    "workers={workers} stream {stream} final labels"
                );
                assert_eq!(fleet.stream_clusters(StreamId(stream)), Some(session.clusters()));
            }
        }
    }

    #[test]
    fn batch_is_all_or_nothing_at_admission() {
        let cfg = FleetConfig::builder().with_slots(1).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let a = img(1);
        let frames = [
            StreamFrame::new(StreamId(0), SegmentRequest::Rgb(&a.rgb)),
            StreamFrame::new(StreamId(1), SegmentRequest::Rgb(&a.rgb)),
        ];
        let mut out = Vec::new();
        let err = fleet
            .try_run_batch_into(&frames, &RunOptions::new(), &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            SegmentError::Fleet(FleetError::Saturated { .. })
        ));
        assert!(out.is_empty(), "no partial output on admission failure");
        assert_eq!(fleet.stats().frames, 0);
    }

    #[test]
    fn into_segmentation_hands_over_the_final_frame() {
        let cfg = FleetConfig::default();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(4);
        let report = fleet.run(StreamId(5), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        let labels = fleet
            .stream_labels(StreamId(5))
            .map(|p| p.as_slice().to_vec())
            .expect("bound");
        let seg = fleet
            .into_segmentation(StreamId(5), report)
            .expect("stream bound");
        assert_eq!(seg.labels().as_slice(), labels.as_slice());
    }

    #[test]
    fn run_report_carries_the_fleet_section() {
        let cfg = FleetConfig::builder().with_slots(1).with_queue_depth(1).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(6);
        let report = fleet.run(StreamId(9), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        let run = fleet.run_report(StreamId(9), &report, true).expect("bound");
        let fleet_section = run.fleet.expect("fleet section");
        assert_eq!(fleet_section.stream, 9);
        assert_eq!(fleet_section.frames, 1);
        assert_eq!(
            fleet_section.label_checksum,
            label_checksum(fleet.stream_labels(StreamId(9)).expect("labels"))
        );
        // Round-trips through the schema with the optional section.
        let back = RunReport::from_json(&run.to_json()).expect("parse");
        assert_eq!(back, run);
        assert!(fleet.run_report(StreamId(1), &report, true).is_none());
    }
}
