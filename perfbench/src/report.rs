//! Metrics from a measured window, and the JSON line that carries them.

use std::time::Duration;

use crate::drive::Window;
use crate::trace::{self, Layer, Span};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`END_TO_END`] and [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// For a percentile: the sample count, the quantile actually
    /// reported (lower than the named one when the sample is too small
    /// to have ten values beyond it), and the slices it is the median of.
    pub percentile: Option<(usize, f64, usize)>,
}

/// A window is cut into at most this many consecutive slices, and a
/// rate or percentile is reported as the median over the slices, so a
/// burst of interference from outside the process in one slice does not
/// move it.
pub const SLICES: usize = 5;

/// End-to-end metrics of a run with tracing off, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("stable_p50_us", "us"),
    ("stable_p99_us", "us"),
    ("write_amp", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, in ledger order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.encode_us_p50", "us"),
    ("client.encode_us_p99", "us"),
    ("client.verify_us_p50", "us"),
    ("client.verify_us_p99", "us"),
    ("client.invoke_bytes", "B"),
    ("client.reply_bytes", "B"),
    ("transport.pump_us_p50", "us"),
    ("transport.pump_us_p99", "us"),
    ("transport.ops_per_batch", "count"),
    ("server.self_us_per_op", "us"),
    ("server.read_us_p50", "us"),
    ("server.read_us_p99", "us"),
    ("storage.commit_us_p50", "us"),
    ("storage.commit_us_p99", "us"),
    ("storage.device_write_us_p50", "us"),
    ("storage.device_write_us_p99", "us"),
    ("storage.device_writes_per_op", "count"),
    ("storage.device_bytes_per_op", "B"),
    ("storage.group_size", "count"),
    ("storage.checkpoints_per_kop", "count"),
    ("replica.ship_bytes_per_op", "B"),
    ("bench.gen_us_per_op", "us"),
    ("bench.traced_ops_per_s", "ops/s"),
    ("bench.trace_overhead", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

fn plain(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit: unit_of(name),
        value: if value.is_finite() { value } else { 0.0 },
        percentile: None,
    }
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `sample` by nearest rank: the median over up to
/// [`SLICES`] consecutive equal parts of the sample (in completion
/// order), each large enough to hold ten values beyond `q`. When even
/// the whole sample is too small, the highest quantile it supports is
/// reported instead (the maximum below twenty samples), and the metric
/// says so.
fn quantile(name: &'static str, sample: &[f64], q: f64) -> Metric {
    let n = sample.len();
    let need = (10.0 / (1.0 - q) - 1e-9).ceil() as usize;
    let slices = (n / need).clamp(1, SLICES);
    let part = n / slices;
    let mut used = q;
    let values = (0..slices)
        .map(|i| {
            let sorted = trace::sorted(sample[i * part..(i + 1) * part].to_vec());
            match trace::percentile(&sorted, q) {
                Some(p) => p.value,
                None if part >= 20 => {
                    used = 1.0 - 10.0 / part as f64;
                    trace::percentile(&sorted, used).map_or(0.0, |p| p.value)
                }
                None => {
                    used = 1.0;
                    sorted.last().copied().unwrap_or(0.0)
                }
            }
        })
        .collect();
    Metric {
        percentile: Some((n, used, slices)),
        ..plain(name, median(values))
    }
}

/// A traced window alternates untraced and traced chunks of this length.
pub const TRACE_CHUNK: Duration = Duration::from_millis(200);

/// Whether `secs` into a traced window fall in a traced chunk (every
/// second [`TRACE_CHUNK`], starting with the second).
pub fn traced_chunk(secs: f64) -> bool {
    (secs / TRACE_CHUNK.as_secs_f64()) as u64 % 2 == 1
}

/// Completions per second in the traced (or untraced) chunks of a
/// traced window.
fn chunk_rate(w: &Window, traced: bool) -> f64 {
    let chunk = TRACE_CHUNK.as_secs_f64();
    let elapsed = w.elapsed.as_secs_f64();
    let done = w
        .done_at
        .iter()
        .filter(|&&t| traced_chunk(t) == traced)
        .count();
    let time: f64 = (0..(elapsed / chunk).ceil() as u64)
        .map(|i| i as f64 * chunk)
        .filter(|&start| traced_chunk(start + chunk / 2.0) == traced)
        .map(|start| chunk.min(elapsed - start))
        .sum();
    done as f64 / time
}

/// Completions per second: the median over [`SLICES`] equal time slices
/// of the window.
fn rate(w: &Window) -> f64 {
    let length = w.elapsed.as_secs_f64() / SLICES as f64;
    let mut counts = [0u64; SLICES];
    for &t in &w.done_at {
        counts[((t / length) as usize).min(SLICES - 1)] += 1;
    }
    median(counts.iter().map(|&c| c as f64 / length).collect())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// End-to-end metrics of an untraced window.
pub fn end_to_end(w: &Window, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        plain("ops_per_s", rate(w)),
        quantile("read_p50_us", &w.read_us, 0.50),
        quantile("read_p99_us", &w.read_us, 0.99),
        quantile("write_p50_us", &w.write_us, 0.50),
        quantile("write_p99_us", &w.write_us, 0.99),
        quantile("stable_p50_us", &w.stable_us, 0.50),
        quantile("stable_p99_us", &w.stable_us, 0.99),
        plain("write_amp", ratio(w.device.store_bytes, w.put_bytes)),
        plain("setup_s", setup_s),
        plain("peak_rss_mb", peak_rss_mb),
    ]
}

fn durations_us(spans: &[Span], layer: Layer) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

fn intervals(spans: &[Span], layers: &[Layer]) -> Vec<(u64, u64)> {
    spans
        .iter()
        .filter(|s| layers.contains(&s.layer))
        .map(|s| (s.start, s.end))
        .collect()
}

/// Per-layer metrics of a traced window and its spans.
/// Times and their per-op ratios come from the traced chunks; counts
/// per op from the whole window.
pub fn per_layer(w: &Window, spans: &[Span]) -> Vec<Metric> {
    let encode = durations_us(spans, Layer::Encode);
    let verify = durations_us(spans, Layer::Verify);
    let read = durations_us(spans, Layer::ServerRead);
    let pump = durations_us(spans, Layer::Pump);
    let commit = durations_us(spans, Layer::Commit);
    let device = durations_us(spans, Layer::Device);
    let gen_us: f64 = durations_us(spans, Layer::Gen).iter().sum();
    // Pump time not covered by any storage span: the lanes' and
    // enclaves' own work plus the front-end's hand-offs.
    let pump_self_ns: u64 = trace::self_times(
        &intervals(spans, &[Layer::Pump]),
        &intervals(spans, &[Layer::Commit, Layer::Load]),
    )
    .iter()
    .sum();
    let ops = w.completed;
    vec![
        quantile("client.encode_us_p50", &encode, 0.50),
        quantile("client.encode_us_p99", &encode, 0.99),
        quantile("client.verify_us_p50", &verify, 0.50),
        quantile("client.verify_us_p99", &verify, 0.99),
        plain("client.invoke_bytes", ratio(w.request_bytes, w.requests)),
        plain("client.reply_bytes", ratio(w.reply_bytes, w.replies)),
        quantile("transport.pump_us_p50", &pump, 0.50),
        quantile("transport.pump_us_p99", &pump, 0.99),
        plain("transport.ops_per_batch", ratio(w.ops_pumped, w.batches)),
        plain(
            "server.self_us_per_op",
            ratio(pump_self_ns, w.traced_pumped) / 1e3,
        ),
        quantile("server.read_us_p50", &read, 0.50),
        quantile("server.read_us_p99", &read, 0.99),
        quantile("storage.commit_us_p50", &commit, 0.50),
        quantile("storage.commit_us_p99", &commit, 0.99),
        quantile("storage.device_write_us_p50", &device, 0.50),
        quantile("storage.device_write_us_p99", &device, 0.99),
        plain("storage.device_writes_per_op", ratio(w.device.stores, ops)),
        plain(
            "storage.device_bytes_per_op",
            ratio(w.device.store_bytes, ops),
        ),
        plain(
            "storage.group_size",
            ratio(w.dlog.records_appended, w.dlog.group_commits),
        ),
        plain(
            "storage.checkpoints_per_kop",
            ratio(w.dlog.checkpoints * 1000, ops),
        ),
        plain(
            "replica.ship_bytes_per_op",
            ratio(w.engine.state_load_bytes, ops),
        ),
        // Every traced op has exactly one encode span.
        plain("bench.gen_us_per_op", gen_us / encode.len().max(1) as f64),
        plain("bench.traced_ops_per_s", chunk_rate(w, true)),
        plain(
            "bench.trace_overhead",
            chunk_rate(w, false) / chunk_rate(w, true),
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: correctness, op counts, every metric with its unit
/// (and, for percentiles, sample count and reported quantile), and the
/// first failure descriptions.
pub fn json_line(attempted: u64, failed: u64, metrics: &[Metric], errors: &[String]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            let extra = m.percentile.map_or(String::new(), |(n, q, k)| {
                format!(", \"samples\": {n}, \"quantile\": {q}, \"slices\": {k}")
            });
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let errors: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}, \"errors\": [{}]}}",
        failed == 0 && attempted > 0,
        metrics.join(", "),
        errors.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_use_the_allowed_charset_once_each() {
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_layer_metric_and_only_known_ones() {
        let json = include_str!("../../BENCHMARK.json");
        let entry =
            |(name, unit): &(&str, &str)| format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        for m in PER_LAYER {
            assert!(
                json.contains(&entry(m)),
                "{} missing from BENCHMARK.json",
                m.0
            );
        }
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|m| json.contains(&entry(m)))
            .count();
        assert_eq!(json.matches("\"unit\": ").count(), known);
    }

    #[test]
    fn small_samples_report_the_highest_supported_quantile() {
        let sample: Vec<f64> = (1..=500).map(f64::from).collect();
        let m = quantile("read_p99_us", &sample, 0.99);
        // 500 samples support p98 (ten values above it), not p99.
        assert_eq!(m.percentile, Some((500, 0.98, 1)));
        assert_eq!(m.value, 490.0);
        assert_eq!(quantile("read_p99_us", &sample[..10], 0.99).value, 10.0);
    }

    #[test]
    fn percentiles_are_the_median_over_slices() {
        // Five slices of 20 samples support p50; the third slice's
        // median is the median of the five slice medians.
        let mut sample: Vec<f64> = (0..100).map(|i| f64::from(i % 20)).collect();
        // One slice disturbed from outside does not move the result.
        sample[20..40].iter_mut().for_each(|v| *v += 1000.0);
        let m = quantile("read_p50_us", &sample, 0.5);
        assert_eq!((m.value, m.percentile), (9.0, Some((100, 0.5, 5))));
        // 2000 samples make two p99 slices, 999 only one.
        assert_eq!(
            quantile("read_p99_us", &[1.0; 2000], 0.99).percentile,
            Some((2000, 0.99, 2))
        );
        assert_eq!(
            quantile("read_p99_us", &[1.0; 1500], 0.99).percentile,
            Some((1500, 0.99, 1))
        );
    }

    #[test]
    fn chunk_rates_split_traced_from_untraced_chunks() {
        let mut w = Window {
            elapsed: Duration::from_millis(1000),
            ..Window::default()
        };
        // Chunks 0, 2, 4 (untraced) hold 30 completions each, chunks
        // 1 and 3 (traced) 10 each.
        for i in 0..5u32 {
            let n = if i % 2 == 1 { 10 } else { 30 };
            let base = f64::from(i) * 0.2;
            w.done_at
                .extend((0..n).map(|k| base + 0.19 * f64::from(k) / f64::from(n)));
        }
        assert!((chunk_rate(&w, true) - 50.0).abs() < 1e-9);
        assert!((chunk_rate(&w, false) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn ops_per_s_is_the_median_slice_rate() {
        let mut w = Window {
            elapsed: Duration::from_secs(5),
            ..Window::default()
        };
        // 100 completions in each 1-s slice but one burst slice of 400.
        w.done_at = (0..500).map(|i| f64::from(i) / 100.0).collect();
        w.done_at
            .extend((0..300).map(|i| 2.0 + f64::from(i) / 1000.0));
        assert_eq!(rate(&w), 100.0);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let m = [
            plain("ops_per_s", 1234.5),
            quantile("read_p50_us", &[1.0; 40], 0.5),
        ];
        let line = json_line(10, 0, &m, &[]);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}"));
        assert!(line.contains("\"samples\": 40"));
        assert!(!line.contains('\n'));
        assert!(json_line(10, 1, &m, &["a \"b\"".into()]).contains("\"correct\": false"));
    }
}
