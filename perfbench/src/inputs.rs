//! Seeded input generation. Every frame is a pure function of the
//! workload seed; the program under test only ever sees the frames.

use sslic_core::{DistanceMode, Kernel, Segmenter, SlicParams};
use sslic_image::synthetic::SyntheticImage;
use sslic_image::RgbImage;

/// Ground-truth regions per generated scene: enough boundaries that
/// superpixels have edges to adhere to at every workload size.
const SCENE_REGIONS: usize = 48;

/// Radius in pixels of the circular camera pan of [`pan_frames`].
const PAN_RADIUS: usize = 24;

/// One SplitMix64 step over `seed ^ salt`: independent sub-seeds for the
/// scenes of one workload seed.
pub fn subseed(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e4b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A synthetic scene of `width × height` pixels.
pub fn scene(width: usize, height: usize, seed: u64) -> RgbImage {
    SyntheticImage::builder(width, height)
        .seed(seed)
        .regions(SCENE_REGIONS)
        .build()
        .rgb
}

/// `count` frames of `width × height` cut from one scene by a camera
/// panning once around a circle: a video clip whose last frame leads
/// smoothly back into its first, so cycling it stays video-like.
pub fn pan_frames(width: usize, height: usize, count: usize, seed: u64) -> Vec<RgbImage> {
    let big = scene(width + 2 * PAN_RADIUS, height + 2 * PAN_RADIUS, seed);
    let r = PAN_RADIUS as f64;
    (0..count)
        .map(|i| {
            let angle = std::f64::consts::TAU * i as f64 / count as f64;
            let dx = (r + r * angle.cos()).round() as usize;
            let dy = (r + r * angle.sin()).round() as usize;
            RgbImage::from_fn(width, height, |x, y| big.pixel(x + dx, y + dy))
        })
        .collect()
}

/// `count` unrelated scenes of `width × height`.
pub fn distinct_frames(width: usize, height: usize, count: usize, seed: u64) -> Vec<RgbImage> {
    (0..count as u64)
        .map(|i| scene(width, height, subseed(seed, i)))
        .collect()
}

/// The `hw8` configuration: S-SLIC pixel perspective with 2 subsets on
/// the accelerator's 8-bit quantized datapath.
pub fn hw8(superpixels: usize, iterations: u32, threads: usize, kernel: Kernel) -> Segmenter {
    let params = SlicParams::builder(superpixels)
        .compactness(10.0)
        .iterations(iterations)
        .threads(threads)
        .kernel(kernel)
        .build();
    Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8))
}
