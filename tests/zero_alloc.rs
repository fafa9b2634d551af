//! The streaming contract, pinned at the real allocator: after a session's
//! first frame, every [`SegmenterSession`](sslic::prelude::SegmenterSession)
//! frame — steady-state (warm-started) and cold (re-seeded from the grid)
//! alike — performs **zero** heap allocations, for every algorithm, at one
//! and at several threads.
//!
//! The binary installs a counting wrapper around the system allocator;
//! frame 0 of each session is allowed to allocate (it establishes the
//! scratch inventory), frames 1 and 2 must leave the counter untouched.
//! Cold seeding reads the session's image in place and refills the
//! cluster table within its capacity, so it is covered too: through
//! `run_into` (every frame cold) and through a fleet slot rebound to a new
//! stream.
//! Worker threads park on a condvar between dispatches and the futex-based
//! `Mutex`/`Condvar` never allocate on use, so the assertion holds at any
//! thread count.
//!
//! The counter is process-global and libtest runs tests in parallel, so
//! each test holds [`SERIAL`] for its whole body: another test's
//! allocations never land inside a measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use sslic::core::DistanceMode;
use sslic::image::synthetic::SyntheticImage;
use sslic::image::Plane;
use sslic::prelude::*;

/// Counts every allocation and reallocation routed through the global
/// allocator. Deallocations are deliberately not counted: a steady-state
/// frame must not acquire memory; releasing none follows from that.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests of this binary around the shared counter.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], recovering it if an earlier test panicked while
/// holding it (that failure is reported by its own test).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scenarios() -> Vec<(&'static str, Segmenter)> {
    let p = |threads: usize| {
        SlicParams::builder(60)
            .iterations(5)
            .threads(threads)
            .build()
    };
    let mut out = Vec::new();
    for threads in [1usize, 4] {
        out.push(("slic_cpa/float", Segmenter::slic(p(threads))));
        out.push(("slic_ppa/float", Segmenter::slic_ppa(p(threads))));
        out.push((
            "sslic_ppa/quantized8",
            Segmenter::sslic_ppa(p(threads), 2).with_distance_mode(DistanceMode::quantized(8)),
        ));
        // Both forced kernels: the SWAR threshold tables are built once in
        // the session arena, so neither backend may allocate per frame.
        for (name, kernel) in [
            ("sslic_ppa/quantized8+swar", Kernel::Swar),
            ("sslic_ppa/quantized8+scalar", Kernel::Scalar),
        ] {
            let params = SlicParams::builder(60)
                .iterations(5)
                .threads(threads)
                .kernel(kernel)
                .build();
            out.push((
                name,
                Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8)),
            ));
        }
        out.push(("sslic_cpa/float", Segmenter::sslic_cpa(p(threads), 2)));
        let adaptive = SlicParams::builder(60)
            .iterations(5)
            .threads(threads)
            .adaptive_compactness(true)
            .build();
        out.push((
            "slic_ppa/adaptive+preemption",
            Segmenter::slic_ppa(adaptive).with_preemption(0.25),
        ));
    }
    out
}

#[test]
fn self_healing_frames_stay_allocation_free() {
    let _serial = serial();
    // The recovery runtime's scratch (checkpoint table, guard state) is
    // part of the session arena, so arming a policy must not change the
    // zero-alloc contract — neither on clean frames nor on frames that
    // guard-fail, roll back, and retry. A budget of 1 keeps the ladder on
    // the Rollback/FailFrame rungs: ColdRestart legitimately re-seeds (and
    // so allocates) off the steady path and is exercised elsewhere.
    use sslic::core::RecoveryPolicy;
    use sslic::fault::{EngineFaults, FaultKind, FaultPlan, FaultSite};

    let frames: Vec<SyntheticImage> = (0..4)
        .map(|i| {
            SyntheticImage::builder(64, 48)
                .seed(900 + i)
                .regions(5)
                .build()
        })
        .collect();
    let policy = RecoveryPolicy::new(1);

    for threads in [1usize, 4] {
        let params = SlicParams::builder(60)
            .iterations(5)
            .threads(threads)
            .build();
        let seg = Segmenter::sslic_ppa(params, 2);

        // Clean stream, policy armed: nothing fires, nothing allocates.
        let mut session = seg.session(64, 48);
        session.run(
            SegmentRequest::Rgb(&frames[0].rgb),
            &RunOptions::new().with_recovery(&policy),
        );
        for img in &frames[1..] {
            let before = ALLOCS.load(Ordering::SeqCst);
            let report = session.run(
                SegmentRequest::Rgb(&img.rgb),
                &RunOptions::new().with_recovery(&policy),
            );
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(delta, 0, "x{threads}: armed-but-idle recovery allocated");
            assert_eq!(report.scratch_allocs(), 0);
            assert_eq!(report.recovery().retries, 0);
        }

        // Hot stream: sigma-register corruption dense enough that every
        // frame trips a guard and spends its retry — still zero allocs.
        let plan =
            FaultPlan::new(11).with(FaultSite::SigmaRegister, FaultKind::SingleBitFlip, 20_000);
        let mut session = seg.session(64, 48);
        let faults = EngineFaults::new(&plan);
        session.run(
            SegmentRequest::Rgb(&frames[0].rgb),
            &RunOptions::new().with_faults(&faults).with_recovery(&policy),
        );
        let mut retried = 0u64;
        for (i, img) in frames[1..].iter().enumerate() {
            let before = ALLOCS.load(Ordering::SeqCst);
            let report = session.run(
                SegmentRequest::Rgb(&img.rgb),
                &RunOptions::new().with_faults(&faults).with_recovery(&policy),
            );
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(
                delta,
                0,
                "x{threads}: rollback retry on frame {} performed {delta} heap allocations",
                i + 1
            );
            assert_eq!(report.scratch_allocs(), 0, "x{threads}: ledger agrees");
            retried += u64::from(report.recovery().retries);
        }
        assert!(
            retried > 0,
            "x{threads}: the hot plan must actually force retries"
        );
    }
}

#[test]
fn steady_state_frames_never_touch_the_heap() {
    let _serial = serial();
    // All frames are synthesized before any measurement begins.
    let frames: Vec<SyntheticImage> = (0..3)
        .map(|i| {
            SyntheticImage::builder(64, 48)
                .seed(900 + i)
                .regions(5)
                .build()
        })
        .collect();
    for (name, seg) in scenarios() {
        let threads = seg.params().threads().get();
        let mut session = seg.session(64, 48);
        // Frame 0: cold seeding — allocations are expected and irrelevant.
        let first = session.run(SegmentRequest::Rgb(&frames[0].rgb), &RunOptions::new());
        assert!(
            first.scratch_allocs() > 0,
            "{name} x{threads}: frame 0 reports the scratch inventory"
        );
        for (i, img) in frames[1..].iter().enumerate() {
            let before = ALLOCS.load(Ordering::SeqCst);
            let report = session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(
                delta,
                0,
                "{name} x{threads}: steady-state frame {} performed {delta} heap allocations",
                i + 1
            );
            assert_eq!(report.scratch_allocs(), 0, "{name} x{threads}: ledger agrees");
            assert_eq!(report.status(), SegmentationStatus::Ok);
        }
    }
}

#[test]
fn steady_state_fleet_frames_never_touch_the_heap() {
    let _serial = serial();
    // Two live streams through a two-slot fleet: after each stream's cold
    // frame, the whole path — admission lookup, per-frame tallies, the
    // session run itself — must leave the allocation counter untouched.
    let frames: Vec<SyntheticImage> = (0..4)
        .map(|i| {
            SyntheticImage::builder(64, 48)
                .seed(950 + i)
                .regions(5)
                .build()
        })
        .collect();
    for threads in [1usize, 4] {
        let params = SlicParams::builder(60)
            .iterations(5)
            .threads(threads)
            .build();
        let seg = Segmenter::sslic_ppa(params, 2);
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
        let (a, b) = (StreamId(0), StreamId(1));
        // Frame 0 per stream: admission binds a slot and cold seeding
        // computes the initial centers — allocations expected.
        fleet.run(a, SegmentRequest::Rgb(&frames[0].rgb), &RunOptions::new());
        fleet.run(b, SegmentRequest::Rgb(&frames[0].rgb), &RunOptions::new());
        for (i, img) in frames[1..].iter().enumerate() {
            let before = ALLOCS.load(Ordering::SeqCst);
            let ra = fleet.run(a, SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            let rb = fleet.run(b, SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(
                delta,
                0,
                "x{threads}: steady fleet frame {} performed {delta} heap allocations",
                i + 1
            );
            assert_eq!(ra.scratch_allocs(), 0, "x{threads}: stream 0 ledger agrees");
            assert_eq!(rb.scratch_allocs(), 0, "x{threads}: stream 1 ledger agrees");
        }
        // Batched steady-state frames reuse the caller's report vector, so
        // once it is warm the batch API is allocation-free too.
        let batch = [
            StreamFrame::new(a, SegmentRequest::Rgb(&frames[1].rgb)),
            StreamFrame::new(b, SegmentRequest::Rgb(&frames[2].rgb)),
        ];
        let mut reports = Vec::with_capacity(batch.len());
        fleet
            .try_run_batch_into(&batch, &RunOptions::new(), &mut reports)
            .expect("warm batch");
        let before = ALLOCS.load(Ordering::SeqCst);
        fleet
            .try_run_batch_into(&batch, &RunOptions::new(), &mut reports)
            .expect("warm batch");
        let delta = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(delta, 0, "x{threads}: steady batch performed {delta} heap allocations");
    }
}

#[test]
fn cold_frames_never_touch_the_heap() {
    let _serial = serial();
    let frames: Vec<SyntheticImage> = (0..3)
        .map(|i| {
            SyntheticImage::builder(64, 48)
                .seed(970 + i)
                .regions(5)
                .build()
        })
        .collect();
    // `run_into` without a warm start seeds every frame cold from the grid.
    for (name, seg) in scenarios() {
        let threads = seg.params().threads().get();
        let mut session = seg.session(64, 48);
        let mut out = Plane::filled(64, 48, 0u32);
        session.run_into(SegmentRequest::Rgb(&frames[0].rgb), &RunOptions::new(), &mut out);
        for (i, img) in frames[1..].iter().enumerate() {
            let before = ALLOCS.load(Ordering::SeqCst);
            let report = session.run_into(SegmentRequest::Rgb(&img.rgb), &RunOptions::new(), &mut out);
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(
                delta,
                0,
                "{name} x{threads}: cold frame {} performed {delta} heap allocations",
                i + 1
            );
            assert_eq!(report.scratch_allocs(), 0, "{name} x{threads}: ledger agrees");
            assert_eq!(report.status(), SegmentationStatus::Ok);
        }
    }
    // A fleet slot freed by `close` and rebound to a new stream re-seeds
    // cold for the newcomer, on the scratch the slot already owns.
    for threads in [1usize, 4] {
        let params = SlicParams::builder(60)
            .iterations(5)
            .threads(threads)
            .build();
        for seg in [
            Segmenter::sslic_ppa(params, 2),
            Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8)),
        ] {
            let cfg = FleetConfig::builder().with_slots(1).build();
            let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
            let (a, b) = (StreamId(0), StreamId(1));
            fleet.run(a, SegmentRequest::Rgb(&frames[0].rgb), &RunOptions::new());
            fleet.run(a, SegmentRequest::Rgb(&frames[1].rgb), &RunOptions::new());
            assert!(fleet.close(a));
            let before = ALLOCS.load(Ordering::SeqCst);
            let report = fleet.run(b, SegmentRequest::Rgb(&frames[2].rgb), &RunOptions::new());
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert_eq!(
                delta,
                0,
                "{:?} x{threads}: rebound slot's cold frame performed {delta} heap allocations",
                seg.distance_mode()
            );
            assert_eq!(report.scratch_allocs(), 0, "x{threads}: ledger agrees");
        }
    }
}
