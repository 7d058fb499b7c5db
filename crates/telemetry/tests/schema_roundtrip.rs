//! Integration test for the on-disk metrics format: a report written
//! with [`MetricsReport::write_file`] must read back identical through
//! [`MetricsReport::parse`], concatenated files must split back into
//! their lines (the NDJSON contract), and documents from any other
//! schema or version must be rejected, not mis-read.

use epvf_telemetry::{Combine, Ctr, MetricsReport, Registry, Tmr, ALL_CTRS, SCHEMA_VERSION};
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("epvf-telemetry-{}-{name}", std::process::id()));
    p
}

fn sample(seed: u64) -> MetricsReport {
    let r = Registry::new();
    for (i, &c) in ALL_CTRS.iter().enumerate() {
        let v = seed.wrapping_mul(i as u64 + 1) % 10_000;
        match c.def().combine {
            Combine::Sum => r.add(c, v),
            Combine::Max => r.peak(c, v),
        }
    }
    r.peak(Ctr::AceFrontierPeak, seed + 7);
    r.record_ns(Tmr::DdgBuild, seed + 1);
    r.record_ns(Tmr::CampaignRun, (seed + 1) * 1_000_000);
    MetricsReport::new(r.snapshot())
        .with_meta("harness", "schema_roundtrip")
        .with_meta("tricky", "quotes \" backslash \\ newline \n tab \t")
        .with_meta("seed", seed.to_string())
}

#[test]
fn file_round_trip_is_lossless() {
    let report = sample(42);
    let path = tmp_path("roundtrip.json");
    report.write_file(&path).expect("writes");
    let text = std::fs::read_to_string(&path).expect("reads back");
    std::fs::remove_file(&path).ok();
    assert!(text.ends_with('\n'), "NDJSON-friendly trailing newline");
    let back = MetricsReport::parse(&text).expect("parses");
    assert_eq!(back, report);
}

#[test]
fn concatenated_reports_split_into_ndjson_lines() {
    let a = sample(1);
    let b = sample(2);
    let stream = a.to_json() + "\n" + &b.to_json() + "\n";
    let parsed: Vec<MetricsReport> = stream
        .lines()
        .map(|l| MetricsReport::parse(l).expect("each line parses"))
        .collect();
    assert_eq!(parsed, vec![a, b]);
}

#[test]
fn future_version_is_rejected() {
    let line = sample(3).to_json();
    let future = line.replace(
        &format!("\"version\":{SCHEMA_VERSION}"),
        &format!("\"version\":{}", SCHEMA_VERSION + 1),
    );
    assert_ne!(line, future, "substitution must hit");
    let err = MetricsReport::parse(&future).unwrap_err();
    assert!(err.contains("version"), "{err}");
}

#[test]
fn foreign_or_malformed_documents_are_rejected() {
    for bad in [
        "",
        "{}",
        "[]",
        "{\"schema\":\"not-epvf\",\"version\":1,\"meta\":{},\"counters\":{},\"timers\":{}}",
        "{\"schema\":\"epvf-metrics\"}",
        "{\"schema\":\"epvf-metrics\",\"version\":1,\"meta\":{},\"counters\":{\"x\":-1},\"timers\":{}}",
        "{\"schema\":\"epvf-metrics\",\"version\":1,\"meta\":{},\"counters\":{},\"timers\":{}} trailing",
    ] {
        assert!(
            MetricsReport::parse(bad).is_err(),
            "must reject {bad:?}"
        );
    }
}
