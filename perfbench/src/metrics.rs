//! Metric names, units, and the result line.
//!
//! The two tables below are the benchmark's vocabulary: `BENCHMARK.json`
//! at the repository root lists the same names with the same units (the
//! contract test holds them equal), and a run prints exactly one of the
//! tables as its result line.

/// One metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name: a letter or digit, then up to 63 of `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit: up to 16 of `[A-Za-z0-9_/%.-]`.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// What a user of the frame path sees, printed by every untraced run.
pub const END_TO_END: &[Spec] = &[
    spec("frames_per_s", "1/s"),
    spec("frame_ms_p50", "ms"),
    spec("frame_ms_p90", "ms"),
    spec("setup_s", "s"),
    spec("peak_rss_mib", "MiB"),
];

/// Per-layer figures, printed by every traced run. Times are per-frame
/// medians; a layer the workload's frame path never calls reads 0.
/// `hw.*_modeled` are simulated accelerator times, not wall-clock.
pub const PER_LAYER: &[Spec] = &[
    spec("image.decode_ms", "ms"),
    spec("color.convert_ms", "ms"),
    spec("color.ns_per_px", "ns"),
    spec("core.init_ms", "ms"),
    spec("core.assign_ms", "ms"),
    spec("core.update_ms", "ms"),
    spec("core.connectivity_ms", "ms"),
    spec("core.unattributed_ms", "ms"),
    spec("core.distance_calcs", "count"),
    spec("core.ns_per_distance_calc", "ns"),
    spec("core.scratch_mib", "MiB"),
    spec("fleet.run_ms", "ms"),
    spec("fleet.rebinds", "count"),
    spec("fleet.rejected", "count"),
    spec("serve.encode_ms", "ms"),
    spec("serve.overhead_ms", "ms"),
    spec("hw.color_ms_modeled", "sim_ms"),
    spec("hw.assign_ms_modeled", "sim_ms"),
    spec("hw.center_ms_modeled", "sim_ms"),
    spec("hw.memory_ms_modeled", "sim_ms"),
    spec("hw.assign_gap", "ratio"),
    spec("trace.overhead_pct", "%"),
];

/// The metric table a run prints: per-layer when traced, else end-to-end.
pub fn table(traced: bool) -> &'static [Spec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Whether `name` follows the metric-name grammar.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    head_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` follows the unit grammar.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders the result line: `correct`, `attempted`, `failed`, and every
/// metric of `specs` with its unit, each value taken from `values`.
///
/// # Errors
///
/// A metric of `specs` missing from `values`, or a value that is not a
/// finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &[(&str, f64)],
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(specs.len());
    for s in specs {
        let value = values
            .iter()
            .find(|(n, _)| *n == s.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", s.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", s.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            s.name, s.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}
