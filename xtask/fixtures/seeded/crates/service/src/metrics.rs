//! Seeded fixture for the metrics-registry pass: three exported
//! families, of which `peel_fixture_undocumented_total` is deliberately
//! absent from the fixture README's metrics table.

pub const REGISTRY: &[Family] = &[
    Family {
        name: "peel_fixture_documented_total",
        kind: "counter",
        labels: &[],
        help: "A documented counter",
        read: |s| one(s.documented),
    },
    Family {
        name: "peel_fixture_gauge",
        kind: "gauge",
        labels: &["shard"],
        help: "A documented gauge",
        read: |s| indexed(&s.shards, |sh| sh.level),
    },
    Family {
        name: "peel_fixture_undocumented_total",
        kind: "counter",
        labels: &[],
        help: "Missing from the README table on purpose",
        read: |s| one(s.undocumented),
    },
];
