//! Prometheus text-exposition rendering of the service metrics.
//!
//! [`render`] turns a list of [`Sample`]s into the plain-text format
//! scraped by Prometheus-compatible collectors; the optional
//! `peel-server --metrics-addr` listener serves it over plain HTTP. It
//! is one loop over [`REGISTRY`] (the `metrics` module), which supplies
//! each family's type and help. A histogram renders as cumulative
//! `_bucket` lines, `_sum`, `_count`, and a derived `_quantile` gauge so
//! a plain scrape shows percentiles without server-side math.

use std::fmt::Write as _;

use crate::metrics::{bucket_floor, Sample, Samples, Value, HISTOGRAM_BUCKETS, REGISTRY};

/// The quantiles rendered for each histogram's `_quantile` companion.
const QUANTILES: &[(&str, f64)] = &[("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)];

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// `k="v",…` for a sample's labels plus any `extra` pair, braced;
/// empty when there are none.
fn label_set(s: &Sample, extra: Option<(&str, &str)>) -> String {
    let pairs = s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    let body: Vec<String> = pairs
        .chain(extra)
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    if body.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", body.join(","))
    }
}

/// Render the samples in Prometheus text exposition format: every
/// registry family gets its `# HELP`/`# TYPE` header (even with no
/// samples), then its samples. Samples of families this build does not
/// know, or whose value does not match the family's type, are skipped.
pub fn render(samples: &Samples) -> String {
    let mut out = String::with_capacity(8192);
    for f in REGISTRY {
        let name = f.name;
        header(&mut out, name, f.kind, f.help);
        // A histogram's `_quantile` gauge, collected behind its own
        // header and emitted after the histogram's series.
        let qname = format!("{name}_quantile");
        let mut quantiles = String::new();
        if f.kind == "histogram" {
            let by: Vec<&str> = f.labels.iter().copied().chain(["q"]).collect();
            let qhelp = format!("{name} quantile readout (labelled by {})", by.join(" and "));
            header(&mut quantiles, &qname, "gauge", &qhelp);
        }
        for s in samples.0.iter().filter(|s| s.family == name) {
            match &s.value {
                Value::Scalar(v) if f.kind != "histogram" => {
                    let _ = writeln!(out, "{name}{} {v}", label_set(s, None));
                }
                Value::Histogram(h) if f.kind == "histogram" => {
                    let mut cum = 0u64;
                    for &(i, c) in &h.buckets {
                        cum = cum.saturating_add(c);
                        // The top bucket runs to u64::MAX: `+Inf` below.
                        if i as usize + 1 < HISTOGRAM_BUCKETS {
                            let le = bucket_floor(i as usize + 1).to_string();
                            let labels = label_set(s, Some(("le", &le)));
                            let _ = writeln!(out, "{name}_bucket{labels} {cum}");
                        }
                    }
                    let labels = label_set(s, Some(("le", "+Inf")));
                    let _ = writeln!(out, "{name}_bucket{labels} {}", h.count);
                    let labels = label_set(s, None);
                    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum);
                    let _ = writeln!(out, "{name}_count{labels} {}", h.count);
                    for (q, at) in QUANTILES {
                        let labels = label_set(s, Some(("q", *q)));
                        let _ = writeln!(quantiles, "{qname}{labels} {}", h.quantile(*at));
                    }
                }
                _ => {}
            }
        }
        out.push_str(&quantiles);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        FollowerStats, Metrics, MetricsSnapshot, ReplicationStats, ReshardStats, ShardStats,
    };
    // ordering: Relaxed — single-threaded test fixture setup; no
    // cross-thread publication happens in these tests.
    use std::sync::atomic::Ordering::Relaxed;

    fn sample() -> MetricsSnapshot {
        let m = Metrics::default();
        m.batches_applied.store(5, Relaxed);
        m.record_recovery(true, 3, &[2, 1], &[600, 400]);
        m.record_request(1, 1200);
        m.record_request(1, 90_000);
        m.queue_wait.record(450);
        m.batch_apply.record(7_000);
        let mut hub = ReplicationStats {
            followers: 1,
            published_seq: 9,
            acked_min: 7,
            max_lag: 2,
            ..ReplicationStats::default()
        };
        hub.per_follower.push(FollowerStats {
            id: 1,
            published: 9,
            acked: 7,
            lag: 2,
            alive: true,
        });
        hub.lag.merge(&{
            let h = crate::metrics::AtomicHistogram::new();
            h.record(2);
            h.record(0);
            h.snapshot()
        });
        m.snapshot(vec![ShardStats::default(); 2], hub, ReshardStats::default())
    }

    #[test]
    fn every_registry_family_is_rendered() {
        let body = render(&sample().samples());
        for f in REGISTRY {
            let (name, kind) = (f.name, f.kind);
            assert!(
                body.contains(&format!("# TYPE {name} {kind}")),
                "missing TYPE line for {name}"
            );
            if kind == "histogram" {
                assert!(body.contains(&format!("# TYPE {name}_quantile gauge")));
            }
        }
    }

    #[test]
    fn histograms_render_buckets_and_quantiles() {
        let body = render(&sample().samples());
        assert!(body.contains("peel_request_latency_ns_bucket{class=\"ingest\",le=\""));
        assert!(body.contains("peel_request_latency_ns_count{class=\"ingest\"} 2"));
        assert!(body.contains("peel_request_latency_ns_quantile{class=\"ingest\",q=\"0.5\"}"));
        assert!(body.contains("peel_replication_lag_batches_quantile{q=\"0.99\"}"));
        assert!(body.contains("peel_replication_lag_batches_count 2"));
        assert!(body.contains("peel_replication_follower_lag{follower=\"1\"} 2"));
        assert!(body.contains("peel_replication_follower_alive{follower=\"1\"} 1"));
        assert!(body.contains("le=\"+Inf\"} 2"));
        // The last recovery's per-subround trace (keys 2 then 1).
        assert!(body.contains("peel_last_recovery_subround_keys{subround=\"1\"} 1"));
        assert!(body.contains("peel_last_recovery_subround_ns{subround=\"0\"} 600"));
        assert!(body.contains("peel_recovery_latency_ns_count 1"));
        assert!(body.contains("peel_recovery_latency_ns_sum 1000"));
    }

    /// The top bucket runs to `u64::MAX`; `bucket_floor` has no bucket
    /// above it, so it renders only through the `+Inf` line.
    #[test]
    fn top_bucket_renders_as_inf_only() {
        let m = Metrics::default();
        m.queue_wait.record(u64::MAX);
        let snap = m.snapshot(
            Vec::new(),
            ReplicationStats::default(),
            ReshardStats::default(),
        );
        let body = render(&snap.samples());
        assert!(body.contains("peel_queue_wait_ns_bucket{le=\"+Inf\"} 1"));
        assert!(!body.contains("peel_queue_wait_ns_bucket{le=\"1\"}"));
    }

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for f in REGISTRY {
            let name = f.name;
            assert!(seen.insert(name), "duplicate registry entry {name}");
            assert!(name.starts_with("peel_"), "{name} lacks the peel_ prefix");
            assert!(!f.help.is_empty(), "{name} has an empty help string");
            assert!(matches!(f.kind, "counter" | "gauge" | "histogram"));
            assert!(!f.labels.iter().any(|l| matches!(*l, "le" | "q")));
        }
        // A histogram's derived series never collide with another family.
        for f in REGISTRY.iter().filter(|f| f.kind == "histogram") {
            for suffix in ["_bucket", "_sum", "_count", "_quantile"] {
                assert!(!seen.contains(format!("{}{suffix}", f.name).as_str()));
            }
        }
    }
}
