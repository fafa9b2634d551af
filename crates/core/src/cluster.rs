use sslic_image::gradient::min_gradient_in_3x3;

use crate::SeedGrid;

/// A superpixel cluster center: the 5-D vector `[L, a, b, x, y]` of the
/// paper (§2), i.e. the mean color and centroid of its member pixels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cluster {
    /// Mean lightness `L*`.
    pub l: f32,
    /// Mean `a*`.
    pub a: f32,
    /// Mean `b*`.
    pub b: f32,
    /// Centroid column.
    pub x: f32,
    /// Centroid row.
    pub y: f32,
}

impl Cluster {
    /// Creates a cluster from its 5 coordinates.
    pub fn new(l: f32, a: f32, b: f32, x: f32, y: f32) -> Self {
        Cluster { l, a, b, x, y }
    }

    /// L1 distance moved from `previous`, in pixels (the paper's
    /// convergence criterion tracks center movement).
    pub fn movement_from(&self, previous: &Cluster) -> f32 {
        (self.x - previous.x).abs() + (self.y - previous.y).abs()
    }
}

/// Initializes cluster centers on the seed grid into `out` (cleared first;
/// its capacity is kept, so a reused `Vec` never reallocates), sampling the
/// `[L, a, b]` color that `pixel` reads at each seed and optionally
/// perturbing seeds to the 3×3 minimum-gradient position (paper §2).
///
/// `pixel` must accept every position of the grid's `width × height` frame.
pub fn init_clusters(
    pixel: impl Fn(usize, usize) -> [f32; 3],
    grid: &SeedGrid,
    perturb: bool,
    out: &mut Vec<Cluster>,
) {
    let (w, h) = (grid.width(), grid.height());
    out.clear();
    out.extend((0..grid.cluster_count()).map(|k| {
        let (fx, fy) = grid.seed_position(k);
        let (sx, sy) = ((fx as usize).min(w - 1), (fy as usize).min(h - 1));
        let (x, y) = if perturb {
            min_gradient_in_3x3(&pixel, w, h, sx, sy)
        } else {
            (sx, sy)
        };
        let [l, a, b] = pixel(x, y);
        Cluster::new(l, a, b, x as f32, y as f32)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslic_color::LabImage;

    fn init(lab: &LabImage, grid: &SeedGrid, perturb: bool) -> Vec<Cluster> {
        let mut out = Vec::new();
        init_clusters(|x, y| lab.pixel(x, y), grid, perturb, &mut out);
        out
    }

    fn flat_lab(w: usize, h: usize, v: f32) -> LabImage {
        LabImage::from_fn(w, h, |_, _| [v, 0.0, 0.0])
    }

    #[test]
    fn init_produces_one_cluster_per_grid_cell() {
        let lab = flat_lab(60, 40, 50.0);
        let grid = SeedGrid::new(60, 40, 24);
        let clusters = init(&lab, &grid, false);
        assert_eq!(clusters.len(), grid.cluster_count());
    }

    #[test]
    fn init_samples_seed_color() {
        let lab = LabImage::from_fn(40, 40, |x, _| [x as f32, 0.0, 0.0]);
        let grid = SeedGrid::new(40, 40, 4);
        let clusters = init(&lab, &grid, false);
        for c in &clusters {
            assert_eq!(c.l, c.x, "cluster color sampled at its seed position");
        }
    }

    #[test]
    fn init_refills_in_place() {
        let lab = flat_lab(60, 40, 50.0);
        let grid = SeedGrid::new(60, 40, 24);
        let mut out = vec![Cluster::default(); grid.cluster_count() + 3];
        let capacity = out.capacity();
        init_clusters(|x, y| lab.pixel(x, y), &grid, true, &mut out);
        assert_eq!(out, init(&lab, &grid, true));
        assert_eq!(out.capacity(), capacity, "the reused Vec keeps its buffer");
    }

    #[test]
    fn perturbation_moves_seed_off_edge() {
        // A strong vertical edge exactly through a seed column.
        let grid = SeedGrid::new(40, 40, 4); // 2×2 grid, seeds at x = 10, 30
        let lab = LabImage::from_fn(40, 40, |x, _| {
            [if x < 10 { 0.0 } else { 100.0 }, 0.0, 0.0]
        });
        let unperturbed = init(&lab, &grid, false);
        let perturbed = init(&lab, &grid, true);
        // Seeds in the first column sit on the gradient ridge at x=10 and
        // must move; their x must differ from the unperturbed position.
        assert_ne!(unperturbed[0].x, perturbed[0].x);
    }

    #[test]
    fn perturbation_is_noop_on_flat_images() {
        let lab = flat_lab(50, 50, 42.0);
        let grid = SeedGrid::new(50, 50, 9);
        let a = init(&lab, &grid, false);
        let b = init(&lab, &grid, true);
        assert_eq!(a, b);
    }

    #[test]
    fn movement_is_l1_in_pixels() {
        let a = Cluster::new(0.0, 0.0, 0.0, 10.0, 10.0);
        let b = Cluster::new(5.0, 5.0, 5.0, 13.0, 6.0);
        assert_eq!(b.movement_from(&a), 7.0);
    }
}
