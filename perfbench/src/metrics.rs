//! The metric catalog (names, units, direction) and the result line.

/// Units and direction of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("sat_qps", "1/s", "higher"),
    ("suite_geomean_ms", "ms", "lower"),
    ("peak_dram_mb", "MB", "lower"),
];

/// The six direct engine calls.
pub const CALLS: [&str; 6] = [
    "bfs",
    "msbfs32",
    "connectivity",
    "pagerank",
    "kcore",
    "triangle",
];

/// Every per-layer metric with its unit, in report order. A workload that
/// makes no call into a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    add("serve.submit_us.p50".into(), "us");
    add("serve.submit_us.p99".into(), "us");
    for class in ["point", "probe", "analytics"] {
        for stat in ["p50", "p99"] {
            add(format!("serve.wait_ms.{class}.{stat}"), "ms");
            add(format!("serve.engine_ms.{class}.{stat}"), "ms");
        }
    }
    for (name, unit) in [
        ("serve.batch_members", "count"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.preemptions_per_kq", "1/kq"),
        ("serve.aged_promotions_per_kq", "1/kq"),
        ("serve.queue_depth_end", "count"),
        ("serve.peak_inflight_mb", "MB"),
        ("serve.analytics_s", "s"),
        ("serve.publish_s", "s"),
        ("serve.rebuild_ms", "ms"),
        ("serve.swap_ms", "ms"),
        ("load.lateness_p99_ms", "ms"),
        ("load.samples", "count"),
    ] {
        add(name.into(), unit);
    }
    for class in ["point", "probe", "analytics"] {
        add(format!("nvram.graph_read_words.{class}"), "words");
        add(format!("nvram.aux_words.{class}"), "words");
    }
    add("nvram.publish_write_words".into(), "words");
    add("nvram.publish_read_words".into(), "words");
    for call in CALLS {
        add(format!("core.{call}_ms"), "ms");
        add(format!("nvram.{call}.graph_read_words"), "words");
        add(format!("nvram.{call}.peak_dram_mb"), "MB");
        add(format!("parallel.speedup.{call}"), "x");
    }
    for (name, unit) in [
        ("core.msbfs_sharded32_ms", "ms"),
        ("core.connectivity_sharded_ms", "ms"),
        ("core.overlay_apply_ms", "ms"),
        ("core.overlay_compact_ms", "ms"),
        ("graph.decode_mbps", "MB/s"),
        ("graph.build_s", "s"),
        ("graph.write_s", "s"),
        ("graph.load_s", "s"),
        ("graph.flush_ms", "ms"),
        ("graph.reload_ms", "ms"),
        ("graph.store_mb", "MB"),
        ("trace.spans", "count"),
        ("trace.record_ns", "ns"),
        ("trace.overhead_pct", "%"),
    ] {
        add(name.into(), unit);
    }
    for (name, unit, _) in END_TO_END {
        add(format!("traced.{name}"), unit);
    }
    v
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Values measured by one run, by name.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// No values yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `name` to `value` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Format a finite number for JSON with all its digits.
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// `names` (each `(name, unit)`) taken from `m`. Errors name the first
/// metric that is missing, not finite, or (when `nonzero`) zero.
pub fn result_line(
    m: &Metrics,
    names: &[(String, &str)],
    nonzero: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in names {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is not valid"));
        }
        let value = m
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() || (nonzero && value == 0.0) {
            return Err(format!("metric {name} has no usable value ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|e| e.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "invalid metric name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(names.len() <= 6 + 128);
    }

    #[test]
    fn name_rule_rejects_what_the_result_format_cannot_carry() {
        assert!(valid_name("serve.wait_ms.point.p99"));
        assert!(valid_name("0x-ok_name.1"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("quote\""));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_refuses_missing_zero_and_non_finite_values() {
        let mut m = Metrics::new();
        m.set("setup_s", 0.5);
        let names = vec![("setup_s".to_string(), "s")];
        let line = result_line(&m, &names, true, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        m.set("setup_s", 0.0);
        assert!(result_line(&m, &names, true, 3, 0).is_err());
        assert!(result_line(&m, &names, false, 3, 0).is_ok());
        m.set("setup_s", f64::NAN);
        assert!(result_line(&m, &names, false, 3, 0).is_err());
        assert!(result_line(&Metrics::new(), &names, false, 3, 0).is_err());
    }
}
