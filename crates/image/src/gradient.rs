//! Pointwise gradients for SLIC's center perturbation step.
//!
//! SLIC moves each initial cluster center to the lowest-gradient position in
//! its 3×3 neighbourhood "to avoid initialization on an edge or a noisy
//! pixel" (paper §2). The gradient used by the reference implementation is
//!
//! ```text
//! G(x, y) = ‖I(x+1, y) − I(x−1, y)‖² + ‖I(x, y+1) − I(x, y−1)‖²
//! ```
//!
//! evaluated on the CIELAB image (or any multi-channel image). Seeding only
//! ever looks at the 3×3 block around each seed, so the image is read in
//! place through a pixel accessor and `G` is evaluated at those positions
//! alone — no gradient plane is built.

/// The squared-difference gradient magnitude at `(x, y)` of a
/// `width × height` multi-channel image read through `pixel`.
///
/// Borders are handled by clamping coordinates (replicate padding).
/// `(x, y)` must lie inside the image.
///
/// # Example
///
/// ```
/// use sslic_image::gradient::gradient_at;
///
/// // A vertical step edge: gradient is largest at the step.
/// let step = |x: usize, _y: usize| [if x < 4 { 0.0f32 } else { 100.0 }];
/// assert!(gradient_at(&step, 8, 8, 4, 4) > gradient_at(&step, 8, 8, 1, 4));
/// ```
pub fn gradient_at<const N: usize>(
    pixel: &impl Fn(usize, usize) -> [f32; N],
    width: usize,
    height: usize,
    x: usize,
    y: usize,
) -> f32 {
    let (left, right) = (pixel(x.saturating_sub(1), y), pixel((x + 1).min(width - 1), y));
    let (up, down) = (pixel(x, y.saturating_sub(1)), pixel(x, (y + 1).min(height - 1)));
    let mut gx = 0.0f32;
    let mut gy = 0.0f32;
    for c in 0..N {
        let dx = right[c] - left[c];
        let dy = down[c] - up[c];
        gx += dx * dx;
        gy += dy * dy;
    }
    gx + gy
}

/// Returns the position of the minimum-gradient sample in the 3×3
/// neighbourhood of `(x, y)`, the perturbation SLIC applies to every initial
/// center. The gradient ([`gradient_at`]) is evaluated at the at most nine
/// candidate positions only.
///
/// Coordinates outside the image are skipped (not clamped), so corner seeds
/// consider a 2×2 window. Ties resolve to `(x, y)` itself, then to the first
/// candidate in row-major order, which keeps the result deterministic.
/// `(x, y)` must lie inside the image.
pub fn min_gradient_in_3x3<const N: usize>(
    pixel: &impl Fn(usize, usize) -> [f32; N],
    width: usize,
    height: usize,
    x: usize,
    y: usize,
) -> (usize, usize) {
    let mut best = (x, y);
    let mut best_g = gradient_at(pixel, width, height, x, y);
    for dy in -1isize..=1 {
        for dx in -1isize..=1 {
            let nx = x as isize + dx;
            let ny = y as isize + dy;
            if (dx, dy) == (0, 0)
                || nx < 0
                || ny < 0
                || nx >= width as isize
                || ny >= height as isize
            {
                continue;
            }
            let g = gradient_at(pixel, width, height, nx as usize, ny as usize);
            if g < best_g {
                best_g = g;
                best = (nx as usize, ny as usize);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_image_has_zero_gradient() {
        let flat = |_: usize, _: usize| [3.0f32];
        for (x, y) in [(0, 0), (2, 2), (4, 4)] {
            assert_eq!(gradient_at(&flat, 5, 5, x, y), 0.0);
        }
    }

    #[test]
    fn multi_channel_gradients_accumulate() {
        let single = |x: usize, _: usize| [x as f32];
        let multi = |x: usize, _: usize| [x as f32, 2.0 * x as f32];
        let (s, m) = (gradient_at(&single, 6, 6, 3, 3), gradient_at(&multi, 6, 6, 3, 3));
        // the second channel contributes 4x the first one's squared dx
        assert!(m > s);
        assert!((m - 5.0 * s).abs() < 1e-5);
    }

    #[test]
    fn borders_replicate_the_edge_sample() {
        // x = 0 differences (1) - (0) instead of (1) - (-1): half the slope.
        let ramp = |x: usize, _: usize| [2.0 * x as f32];
        assert_eq!(gradient_at(&ramp, 4, 4, 0, 0), 4.0);
        assert_eq!(gradient_at(&ramp, 4, 4, 1, 0), 16.0);
        assert_eq!(gradient_at(&ramp, 4, 4, 3, 3), 4.0);
    }

    #[test]
    fn min_gradient_moves_seed_off_edge() {
        // Edge at x = 4: gradient is high at x in {3, 4}, zero elsewhere.
        let step = |x: usize, _: usize| [if x < 4 { 0.0f32 } else { 100.0 }];
        let (nx, _ny) = min_gradient_in_3x3(&step, 9, 9, 4, 4);
        assert_ne!(nx, 4, "seed should move off the edge column");
    }

    #[test]
    fn min_gradient_stays_put_on_flat_region() {
        let flat = |_: usize, _: usize| [1.0f32];
        assert_eq!(min_gradient_in_3x3(&flat, 5, 5, 2, 2), (2, 2));
    }

    #[test]
    fn min_gradient_at_corner_considers_in_bounds_only() {
        // Both corners hold their window's minimum (the far one because
        // replicate padding halves its slope); the out-of-range neighbours
        // are skipped, never read.
        let bowl = |x: usize, y: usize| [(x * x + y * y) as f32];
        assert_eq!(min_gradient_in_3x3(&bowl, 4, 4, 0, 0), (0, 0));
        assert_eq!(min_gradient_in_3x3(&bowl, 4, 4, 3, 3), (3, 3));
    }

    #[test]
    fn min_gradient_ties_keep_the_seed_then_row_major_order() {
        // Columns 0 and 1 tie at zero gradient; a seed at x = 2 (non-zero
        // gradient) moves to the first zero candidate in row-major order.
        let ramp = |x: usize, _: usize| [if x < 3 { 0.0f32 } else { (x - 2) as f32 }];
        assert_eq!(min_gradient_in_3x3(&ramp, 8, 8, 2, 4), (1, 3));
        // A seed that already ties the best candidate stays put.
        assert_eq!(min_gradient_in_3x3(&ramp, 8, 8, 1, 4), (1, 4));
    }
}
