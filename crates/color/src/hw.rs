//! The accelerator's LUT-based fixed-point color-conversion datapath.
//!
//! The hardware replaces both power functions of the RGB→CIELAB pipeline
//! with tables (paper §6.1):
//!
//! * the inverse sRGB gamma of Eq. 1 becomes a **256-entry LUT** indexed by
//!   the 8-bit channel code, exact at its output precision;
//! * the cube root of Eq. 4 becomes an **8-segment piecewise-linear LUT**;
//!   the linear region below `0.008856` is computed directly (it is already
//!   a multiply-add);
//! * the 3×3 matrix of Eq. 2 is evaluated in fixed point with the
//!   reference-white division folded into the coefficients.
//!
//! The cube-root stage sees only the clamped integer matrix output
//! `scaled ∈ [0, 2^gamma_frac_bits]`, so [`HwColorConverter::new`] runs
//! the PWL once per possible input and keeps the results as integer
//! tables, together with the 8-bit encode of L, a and b. Per pixel the
//! datapath is then integer only: three gamma-LUT reads, the fixed-point
//! matrix, and table reads.
//!
//! The datapath width at each stage is configurable through
//! [`HwColorConfig`] so the bit-width exploration of §6.1 can sweep it.

use sslic_fixed::{Lut256, PwlLut};
use sslic_image::{Rgb, RgbImage};

use crate::float::{LAB_EPSILON, LAB_KAPPA, REFERENCE_WHITE, RGB_TO_XYZ};
use crate::{lab8, Lab8Image};

/// Precision configuration of the hardware color-conversion unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwColorConfig {
    /// Fraction bits of the gamma LUT output (linear-light codes). Paper
    /// default: 12.
    pub gamma_frac_bits: u8,
    /// Fraction bits of the fixed-point matrix coefficients. Paper
    /// default: 12.
    pub matrix_frac_bits: u8,
    /// Number of PWL segments for the cube root. Paper default: 8.
    pub pwl_segments: usize,
    /// Fraction bits the PWL output is rounded to. Paper default: 12.
    pub pwl_frac_bits: u8,
}

impl Default for HwColorConfig {
    fn default() -> Self {
        HwColorConfig {
            gamma_frac_bits: 12,
            matrix_frac_bits: 12,
            pwl_segments: 8,
            pwl_frac_bits: 12,
        }
    }
}

/// The LUT/fixed-point RGB→CIELAB converter of the S-SLIC accelerator.
///
/// # Example
///
/// ```
/// use sslic_color::hw::HwColorConverter;
/// use sslic_image::Rgb;
///
/// let conv = HwColorConverter::paper_default();
/// let [l8, a8, b8] = conv.convert(Rgb::new(255, 255, 255));
/// assert_eq!(l8, 255);            // white → L* = 100
/// assert!((a8 as i16 - 128).abs() <= 1);
/// assert!((b8 as i16 - 128).abs() <= 1);
/// ```
#[derive(Debug, Clone)]
pub struct HwColorConverter {
    gamma: Lut256,
    /// Matrix coefficients with `1/white` folded in, at `matrix_frac_bits`.
    matrix: [[i64; 3]; 3],
    /// Companded value `k = round(f·2^pwl_frac_bits)` per matrix output.
    k: Vec<i32>,
    /// L code per Y matrix output.
    l: Vec<u8>,
    /// a code per `k_X − k_Y + k_span`.
    a: Vec<u8>,
    /// b code per `k_Y − k_Z + k_span`.
    b: Vec<u8>,
    /// Largest difference between two entries of `k`.
    k_span: i32,
    config: HwColorConfig,
}

impl HwColorConverter {
    /// Builds the converter with the paper's configuration (256-entry gamma
    /// LUT, 8-segment PWL cube root, 12-bit intermediate precision).
    pub fn paper_default() -> Self {
        Self::new(HwColorConfig::default())
    }

    /// Builds the converter tables for an arbitrary precision configuration.
    ///
    /// # Panics
    ///
    /// Panics if `pwl_segments == 0`, if `gamma_frac_bits` or
    /// `pwl_frac_bits` exceeds 16 (each indexes a table of about
    /// `2^bits` entries), or if `matrix_frac_bits` exceeds 24.
    pub fn new(config: HwColorConfig) -> Self {
        assert!(config.pwl_segments > 0, "at least one PWL segment");
        assert!(
            config.gamma_frac_bits <= 16 && config.pwl_frac_bits <= 16,
            "gamma and PWL widths above 16 bits would need 2^17-entry tables"
        );
        assert!(
            config.matrix_frac_bits <= 24,
            "bit widths above 24 are not hardware-plausible here"
        );
        let gscale = (1i64 << config.gamma_frac_bits) as f64;
        let gamma = Lut256::from_fn(|code| {
            let x = code as f64 / 255.0;
            (crate::float::srgb_to_linear(x) * gscale).round() as i32
        });
        let mscale = (1i64 << config.matrix_frac_bits) as f64;
        let mut matrix = [[0i64; 3]; 3];
        for (r, row) in matrix.iter_mut().enumerate() {
            for (c, m) in row.iter_mut().enumerate() {
                *m = (RGB_TO_XYZ[r][c] / REFERENCE_WHITE[r] * mscale).round() as i64;
            }
        }
        // Stage 3 for every matrix output: the PWL cube root (or the exact
        // linear branch), rounded to the PWL output precision. Since
        // `pscale` is a power of two, `f = k / pscale` exactly, and so is
        // every difference of two `f`; stage 4 is a function of `k_Y` and
        // of the two differences.
        let pwl = PwlLut::from_fn_geometric(config.pwl_segments, LAB_EPSILON, 1.0, |t| t.cbrt());
        let pscale = (1i64 << config.pwl_frac_bits) as f64;
        let gmax = 1i64 << config.gamma_frac_bits;
        let k: Vec<i32> = (0..=gmax)
            .map(|scaled| {
                let t = scaled as f64 / gscale;
                let v = if t > LAB_EPSILON {
                    pwl.eval(t)
                } else {
                    (LAB_KAPPA * t + 16.0) / 116.0
                };
                (v * pscale).round() as i32
            })
            .collect();
        let l = k
            .iter()
            .map(|&ky| lab8::encode([116.0 * (ky as f64 / pscale) - 16.0, 0.0, 0.0])[0])
            .collect();
        let k_span = k.iter().max().unwrap_or(&0) - k.iter().min().unwrap_or(&0);
        let (a, b) = (-k_span..=k_span)
            .map(|d| {
                let df = d as f64 / pscale;
                let [_, a, b] = lab8::encode([0.0, 500.0 * df, 200.0 * df]);
                (a, b)
            })
            .unzip();
        HwColorConverter {
            gamma,
            matrix,
            k,
            l,
            a,
            b,
            k_span,
            config,
        }
    }

    /// The converter's precision configuration.
    pub fn config(&self) -> HwColorConfig {
        self.config
    }

    /// Reads one gamma-LUT entry (linear-light code at
    /// [`HwColorConfig::gamma_frac_bits`] fraction bits) — used by tests and
    /// by the fault model to compute realized corruption masks.
    pub fn gamma_entry(&self, code: u8) -> i32 {
        self.gamma.lookup(code)
    }

    /// XORs `xor_mask` into one gamma-LUT entry, modeling a soft error in
    /// the conversion unit's table storage (the `ColorLut` fault site of
    /// `sslic-fault`). Subsequent [`Self::convert`] calls read the corrupted
    /// entry; a second call with the same mask restores it.
    pub fn corrupt_gamma_entry(&mut self, code: u8, xor_mask: i32) {
        self.gamma.corrupt(code, xor_mask);
    }

    /// Converts one 8-bit sRGB pixel to encoded 8-bit CIELAB
    /// (see [`crate::lab8`]).
    pub fn convert(&self, px: Rgb) -> [u8; 3] {
        self.datapath()(px)
    }

    /// The per-pixel datapath over the converter's current tables. The
    /// closure owns copies of the table slices and constants, so an image
    /// loop keeps them in registers instead of re-reading `self` after
    /// every output store.
    #[inline]
    fn datapath(&self) -> impl Fn(Rgb) -> [u8; 3] + '_ {
        let (gamma, matrix) = (self.gamma.as_table(), self.matrix);
        let (k, l, a, b) = (&self.k[..], &self.l[..], &self.a[..], &self.b[..]);
        let k_span = self.k_span;
        let shift = self.config.matrix_frac_bits as u32;
        let half = (1i64 << shift) >> 1;
        let gmax = 1i64 << self.config.gamma_frac_bits;
        move |px| {
            // Stage 1: gamma LUT (three ROM reads).
            let lin = [px.r, px.g, px.b].map(|c| gamma[c as usize] as i64);
            // Stage 2: fixed-point matrix with folded white division. The
            // product has gamma_frac + matrix_frac fraction bits; shift
            // back to gamma_frac with rounding.
            let [sx, sy, sz] = matrix.map(|row| {
                let acc = row[0] * lin[0] + row[1] * lin[1] + row[2] * lin[2];
                ((acc + half) >> shift).clamp(0, gmax) as usize
            });
            // Stage 3: companding, one table read per channel.
            let [kx, ky, kz] = [sx, sy, sz].map(|s| k[s]);
            // Stage 4: the three linear combinations and the 8-bit encode.
            [
                l[sy],
                a[(kx - ky + k_span) as usize],
                b[(ky - kz + k_span) as usize],
            ]
        }
    }

    /// Converts a whole image into the scratchpad's planar 8-bit CIELAB
    /// layout, exactly what the accelerator's color-conversion pass writes
    /// back to channel memories 1–3 (paper §4.3).
    pub fn convert_image(&self, img: &RgbImage) -> Lab8Image {
        let mut out = Lab8Image::from_fn(img.width(), img.height(), |_, _| [0; 3]);
        self.convert_image_into(img, &mut out);
        out
    }

    /// Converts a whole image into a caller-owned planar 8-bit CIELAB
    /// image (no allocation); per-pixel codes are [`Self::convert`]'s.
    /// This is the streaming-session entry point: the session reuses one
    /// `Lab8Image` across frames.
    ///
    /// # Panics
    ///
    /// Panics if `out` differs in geometry from `img`.
    pub fn convert_image_into(&self, img: &RgbImage, out: &mut Lab8Image) {
        assert!(
            out.width() == img.width() && out.height() == img.height(),
            "convert_image_into requires matching image geometry"
        );
        let convert = self.datapath();
        let codes = out.l.iter_mut().zip(out.a.iter_mut()).zip(out.b.iter_mut());
        for (px, ((l, a), b)) in img.as_raw().chunks_exact(3).zip(codes) {
            [*l, *a, *b] = convert(Rgb::new(px[0], px[1], px[2]));
        }
    }

    /// Maximum per-channel absolute deviation (in 8-bit code units) from
    /// the float reference over a deterministic sample of the RGB cube —
    /// the validation the paper runs before committing to the LUT design.
    pub fn max_code_error_vs_float(&self, stride: u8) -> [u8; 3] {
        let step = usize::from(stride.max(1));
        let mut max = [0u8; 3];
        for r in (0..=255u8).step_by(step) {
            for g in (0..=255u8).step_by(step) {
                for b in (0..=255u8).step_by(step) {
                    let px = Rgb::new(r, g, b);
                    let hwc = self.convert(px);
                    let refc = lab8::encode(crate::float::rgb8_to_lab(px));
                    for i in 0..3 {
                        max[i] = max[i].max(hwc[i].abs_diff(refc[i]));
                    }
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel f64 datapath the tables replace, kept as the
    /// reference they are checked against. Stages 1–2 read the
    /// converter's own (possibly corrupted) gamma LUT and matrix; stage 3
    /// runs an unfaulted PWL cube root.
    struct Reference {
        pwl: PwlLut,
        config: HwColorConfig,
    }

    impl Reference {
        fn new(config: HwColorConfig) -> Self {
            let pwl = PwlLut::from_fn_geometric(config.pwl_segments, LAB_EPSILON, 1.0, f64::cbrt);
            Reference { pwl, config }
        }

        /// Stage 3: companding via PWL (or the exact linear branch),
        /// rounded to the PWL output precision.
        fn stage3(&self, scaled: i64) -> f64 {
            let ti = scaled as f64 / (1i64 << self.config.gamma_frac_bits) as f64;
            let pscale = (1i64 << self.config.pwl_frac_bits) as f64;
            let v = if ti > LAB_EPSILON {
                self.pwl.eval(ti)
            } else {
                (LAB_KAPPA * ti + 16.0) / 116.0
            };
            (v * pscale).round() / pscale
        }

        fn convert(&self, conv: &HwColorConverter, px: Rgb) -> [u8; 3] {
            let lin = [
                conv.gamma.lookup(px.r) as i64,
                conv.gamma.lookup(px.g) as i64,
                conv.gamma.lookup(px.b) as i64,
            ];
            let shift = self.config.matrix_frac_bits as u32;
            let half = 1i64 << (shift - 1).min(62);
            let gmax = 1i64 << self.config.gamma_frac_bits;
            let mut f = [0f64; 3];
            for (row, fr) in f.iter_mut().enumerate() {
                let acc: i64 = (0..3).map(|c| conv.matrix[row][c] * lin[c]).sum();
                *fr = self.stage3(((acc + half) >> shift).clamp(0, gmax));
            }
            stage4(f)
        }
    }

    /// Stage 4: the three linear combinations and the 8-bit encode.
    fn stage4(f: [f64; 3]) -> [u8; 3] {
        lab8::encode([
            116.0 * f[1] - 16.0,
            500.0 * (f[0] - f[1]),
            200.0 * (f[1] - f[2]),
        ])
    }

    const NARROW: HwColorConfig = HwColorConfig {
        gamma_frac_bits: 7,
        matrix_frac_bits: 9,
        pwl_segments: 3,
        pwl_frac_bits: 6,
    };

    #[test]
    fn tables_equal_the_reference_over_their_whole_domain() {
        for config in [HwColorConfig::default(), NARROW] {
            let conv = HwColorConverter::new(config);
            let reference = Reference::new(config);
            let pscale = (1i64 << config.pwl_frac_bits) as f64;
            let gmax = 1i64 << config.gamma_frac_bits;
            assert_eq!(conv.k.len() as i64, gmax + 1);
            for scaled in 0..=gmax {
                let f = reference.stage3(scaled);
                let s = scaled as usize;
                assert_eq!(conv.k[s] as f64 / pscale, f, "{config:?}: k[{scaled}]");
                assert_eq!(conv.l[s], stage4([f; 3])[0], "{config:?}: l[{scaled}]");
            }
            // Every k difference the a/b tables hold, realised by two
            // in-range k values.
            let (kmin, kmax) = (conv.k[0], conv.k[gmax as usize]);
            assert_eq!(conv.k_span, kmax - kmin, "{config:?}: k is monotone");
            assert_eq!(conv.a.len(), 2 * conv.k_span as usize + 1);
            assert_eq!(conv.b.len(), conv.a.len());
            for d in -conv.k_span..=conv.k_span {
                let (hi, lo) = if d >= 0 {
                    (kmin + d, kmin)
                } else {
                    (kmax + d, kmax)
                };
                let (hi, lo) = (hi as f64 / pscale, lo as f64 / pscale);
                let i = (d + conv.k_span) as usize;
                assert_eq!(conv.a[i], stage4([hi, lo, lo])[1], "{config:?}: a[{d}]");
                assert_eq!(conv.b[i], stage4([lo, hi, lo])[2], "{config:?}: b[{d}]");
            }
        }
    }

    #[test]
    #[ignore = "all 2^24 inputs at four configs; ci.sh runs it in release"]
    fn table_path_equals_the_reference_on_every_rgb_input() {
        let eight_bit = HwColorConfig {
            gamma_frac_bits: 8,
            matrix_frac_bits: 8,
            pwl_frac_bits: 8,
            ..HwColorConfig::default()
        };
        let widest = HwColorConfig {
            gamma_frac_bits: 16,
            matrix_frac_bits: 16,
            pwl_segments: 16,
            pwl_frac_bits: 16,
        };
        for config in [HwColorConfig::default(), NARROW, eight_bit, widest] {
            let conv = HwColorConverter::new(config);
            let reference = Reference::new(config);
            for r in 0..=255u8 {
                for g in 0..=255u8 {
                    for b in 0..=255u8 {
                        let px = Rgb::new(r, g, b);
                        assert_eq!(conv.convert(px), reference.convert(&conv, px), "{config:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn corrupted_gamma_entries_flow_through_the_tables_like_the_reference() {
        let clean = HwColorConverter::paper_default();
        let mut conv = clean.clone();
        let reference = Reference::new(conv.config());
        // A sign flip drives `lin` negative, bit 14 drives it past the
        // 13-bit field of the paper's 12-fraction-bit entries, and an
        // in-field mask models the fault sweeps' realised corruption.
        let faults = [(3u8, i32::MIN), (77, 1 << 14), (200, 0x155)];
        for (code, mask) in faults {
            conv.corrupt_gamma_entry(code, mask);
        }
        assert!(conv.gamma_entry(3) < 0);
        assert!(conv.gamma_entry(77) >= 1 << 13);
        for (code, _) in faults {
            let grey = Rgb::new(code, code, code);
            assert_ne!(
                conv.convert(grey),
                clean.convert(grey),
                "code {code} is visible"
            );
            for u in 0..=255u8 {
                for v in 0..=255u8 {
                    for px in [
                        Rgb::new(code, u, v),
                        Rgb::new(u, code, v),
                        Rgb::new(u, v, code),
                    ] {
                        assert_eq!(conv.convert(px), reference.convert(&conv, px), "{px:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn convert_image_into_matches_convert_image_bit_for_bit() {
        let img = RgbImage::from_fn(7, 5, |x, y| {
            Rgb::new((x * 31) as u8, (y * 47) as u8, ((x + y) * 13) as u8)
        });
        let conv = HwColorConverter::paper_default();
        let fresh = conv.convert_image(&img);
        let mut reused = Lab8Image::from_fn(7, 5, |_, _| [1; 3]);
        conv.convert_image_into(&img, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn image_conversion_matches_convert_exactly() {
        // An odd width and a non-default precision: every plane position
        // must hold its own pixel's codes.
        for config in [HwColorConfig::default(), NARROW] {
            let conv = HwColorConverter::new(config);
            let img = RgbImage::from_fn(11, 6, |x, y| {
                Rgb::new(
                    (x * 23 + y * 5) as u8,
                    (y * 41 + x) as u8,
                    ((x * y) * 17 + 3) as u8,
                )
            });
            let lab = conv.convert_image(&img);
            for y in 0..img.height() {
                for x in 0..img.width() {
                    assert_eq!(
                        lab.pixel(x, y),
                        conv.convert(img.pixel(x, y)),
                        "image path diverged at ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn black_and_white_are_exact() {
        let conv = HwColorConverter::paper_default();
        let black = conv.convert(Rgb::new(0, 0, 0));
        assert_eq!(black[0], 0);
        assert!((black[1] as i16 - 128).abs() <= 1);
        assert!((black[2] as i16 - 128).abs() <= 1);
        let white = conv.convert(Rgb::new(255, 255, 255));
        assert_eq!(white[0], 255);
    }

    #[test]
    fn tracks_float_reference_within_a_few_lsbs() {
        // The 8-segment PWL cube root has ≈0.009 max error; a* = 500(fx−fy)
        // amplifies it to at most ~±7 codes in the worst (dark, saturated)
        // corner of the cube. L* (116× then ×2.55 encode) stays within
        // ~3 codes. These bounds
        // are what make the paper's "only 0.003 larger USE at 8-bit" hold:
        // SLIC compares relative distances, so a few correlated LSBs of
        // channel error rarely flip a 9:1 minimum decision.
        let conv = HwColorConverter::paper_default();
        let err = conv.max_code_error_vs_float(15);
        assert!(err[0] <= 3, "L error {} too large", err[0]);
        assert!(err[1] <= 7, "a error {} too large", err[1]);
        assert!(err[2] <= 7, "b error {} too large", err[2]);
    }

    #[test]
    fn coarser_precision_increases_error() {
        let fine = HwColorConverter::paper_default();
        let coarse = HwColorConverter::new(HwColorConfig {
            gamma_frac_bits: 5,
            matrix_frac_bits: 5,
            pwl_segments: 2,
            pwl_frac_bits: 5,
        });
        let ef = fine.max_code_error_vs_float(25);
        let ec = coarse.max_code_error_vs_float(25);
        assert!(
            ec.iter().sum::<u8>() > ef.iter().sum::<u8>(),
            "coarse {ec:?} should be worse than fine {ef:?}"
        );
    }

    #[test]
    fn grey_axis_is_neutral_in_hw_path() {
        let conv = HwColorConverter::paper_default();
        for v in [16u8, 64, 128, 192, 240] {
            let [_, a, b] = conv.convert(Rgb::new(v, v, v));
            assert!((a as i16 - 128).abs() <= 1, "grey {v}: a={a}");
            assert!((b as i16 - 128).abs() <= 1, "grey {v}: b={b}");
        }
    }

    #[test]
    fn l_channel_monotone_on_grey_axis() {
        let conv = HwColorConverter::paper_default();
        let mut last = 0u8;
        for v in 0..=255u8 {
            let [l, _, _] = conv.convert(Rgb::new(v, v, v));
            assert!(l >= last, "hw L must be monotone on greys");
            last = l;
        }
    }

    #[test]
    fn convert_image_is_planar_and_matches_per_pixel() {
        let conv = HwColorConverter::paper_default();
        let img = RgbImage::from_fn(4, 3, |x, y| Rgb::new((x * 60) as u8, (y * 80) as u8, 128));
        let lab = conv.convert_image(&img);
        assert_eq!(lab.pixel(2, 1), conv.convert(img.pixel(2, 1)));
    }

    #[test]
    #[should_panic(expected = "PWL segment")]
    fn zero_segments_panics() {
        let _ = HwColorConverter::new(HwColorConfig {
            pwl_segments: 0,
            ..HwColorConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "above 16 bits")]
    fn gamma_width_17_panics() {
        let _ = HwColorConverter::new(HwColorConfig {
            gamma_frac_bits: 17,
            ..HwColorConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "above 16 bits")]
    fn pwl_width_17_panics() {
        let _ = HwColorConverter::new(HwColorConfig {
            pwl_frac_bits: 17,
            ..HwColorConfig::default()
        });
    }

    #[test]
    fn integer_matrix_without_fraction_bits_converts() {
        // At 0 fraction bits the matrix output needs no rounding half.
        let conv = HwColorConverter::new(HwColorConfig {
            matrix_frac_bits: 0,
            ..HwColorConfig::default()
        });
        assert_eq!(conv.convert(Rgb::new(0, 0, 0))[0], 0);
    }

    #[test]
    fn widest_table_config_builds_with_a_24_bit_matrix() {
        let conv = HwColorConverter::new(HwColorConfig {
            gamma_frac_bits: 16,
            matrix_frac_bits: 24,
            pwl_segments: 16,
            pwl_frac_bits: 16,
        });
        assert_eq!(conv.k.len(), (1 << 16) + 1);
        assert_eq!(conv.convert(Rgb::new(255, 255, 255))[0], 255);
    }
}
