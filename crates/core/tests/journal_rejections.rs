//! Every way a malformed sweep file is rejected, pinned as a table: the
//! input, the typed `CoreError` variant, and a fragment of the message
//! (DESIGN.md §14 "Work journal" and §19 "Verified merge").
//!
//! Resume rows write one journal and resume it through
//! `journaled_sweep`; merge rows write shard journals and hand them to
//! `merge_shard_journals`. The inputs are written by hand, so the table
//! pins the file format as well as the checks.

use pi3d_core::jobs::{config_fingerprint, journaled_sweep, unit_key};
use pi3d_core::{merge_shard_journals, CoreError, JobContext};
use pi3d_telemetry::Json;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pi3d-rejections-{}-{name}", std::process::id()))
}

fn hash() -> u64 {
    config_fingerprint(&["rejections"])
}

fn header(fields: &str) -> String {
    format!(
        "{{\"journal\":\"pi3d.jobs.v1\",\"kind\":\"squares\",\"config_hash\":\"{:016x}\"{fields}}}\n",
        hash()
    )
}

fn record(unit: usize, payload: &str) -> String {
    format!(
        "{{\"unit\":{unit},\"key\":\"{:016x}\",\"payload\":{payload}}}\n",
        unit_key(hash(), unit)
    )
}

fn variant(err: &CoreError) -> &'static str {
    match err {
        CoreError::Journal { .. } => "Journal",
        CoreError::Shard { .. } => "Shard",
        _ => "other",
    }
}

/// Resumes a four-unit sweep of squares from a journal holding `text`.
fn resume(name: &str, text: &str) -> CoreError {
    let path = temp_path(name);
    std::fs::write(&path, text).expect("write journal");
    let err = journaled_sweep(
        "squares",
        hash(),
        &[1u64, 2, 3, 4],
        1,
        &JobContext::new().with_resume(&path),
        |_, &r: &u64| Json::num(r as f64),
        |_, payload| payload.as_num().map(|v| v as u64),
        |_, &v| Ok(v * v),
    )
    .expect_err("a malformed journal must not resume");
    let _ = std::fs::remove_file(&path);
    err
}

/// Merges one shard journal per entry of `texts`.
fn merge(name: &str, texts: &[String]) -> CoreError {
    let inputs: Vec<PathBuf> = (0..texts.len())
        .map(|i| temp_path(&format!("{name}.shard{i}")))
        .collect();
    for (path, text) in inputs.iter().zip(texts) {
        std::fs::write(path, text).expect("write shard journal");
    }
    let out = temp_path(&format!("{name}.merged"));
    let err = merge_shard_journals(&out, &inputs).expect_err("a malformed merge must fail");
    for path in inputs.iter().chain([&out]) {
        let _ = std::fs::remove_file(path);
    }
    err
}

#[test]
fn every_malformed_sweep_file_is_rejected_with_its_message() {
    let plain = header("");
    let shard = |index: usize| header(&format!(",\"shard_index\":{index},\"shard_count\":2"));
    let cubes_shard1 = shard(1).replace("\"squares\"", "\"cubes\"");
    let bad_hash = shard(0).replace(&format!("{:016x}", hash()), "not-hex");
    let key0 = format!("{:016x}", unit_key(hash(), 0));

    let rows: Vec<(&str, CoreError, &str, &str)> = vec![
        (
            "resume: header is not JSON",
            resume("corrupt-header", "{\"journal\":\n"),
            "Journal",
            "corrupt header",
        ),
        (
            "resume: unknown schema",
            resume("schema", &plain.replace("pi3d.jobs.v1", "pi3d.jobs.v0")),
            "Journal",
            "unsupported schema",
        ),
        (
            "resume: record without a unit",
            resume(
                "no-unit",
                &format!("{plain}{{\"key\":\"{key0}\",\"payload\":1}}\n"),
            ),
            "Journal",
            "line 2 has no unit",
        ),
        (
            "resume: record without a payload",
            resume(
                "no-payload",
                &format!("{plain}{{\"unit\":0,\"key\":\"{key0}\"}}\n"),
            ),
            "Journal",
            "has no payload (line 2)",
        ),
        (
            "resume: unit past the end of the sweep",
            resume("range", &format!("{plain}{}", record(9, "81"))),
            "Journal",
            "is out of range for this",
        ),
        (
            "resume: payload the sweep cannot decode",
            resume("decode", &format!("{plain}{}", record(0, "\"one\""))),
            "Journal",
            "cannot decode payload of unit",
        ),
        (
            "merge: plain journal",
            merge("plain", &[plain]),
            "Journal",
            "not a shard journal",
        ),
        (
            "merge: config hash is not hex",
            merge("hash", &[bad_hash, shard(1)]),
            "Journal",
            "unparseable config hash",
        ),
        (
            "merge: two inputs claim one slice",
            merge("dup-index", &[shard(0), shard(0)]),
            "Journal",
            "duplicate shard index",
        ),
        (
            "merge: inputs from different sweep kinds",
            merge("kind", &[shard(0), cubes_shard1]),
            "Journal",
            "run, not",
        ),
        (
            "merge: empty input",
            merge("empty", &[String::new()]),
            "Journal",
            "no complete header line",
        ),
        (
            "merge: no inputs",
            merge_shard_journals(&temp_path("none.merged"), &[])
                .expect_err("merging nothing must fail"),
            "Shard",
            "at least one shard journal",
        ),
    ];

    let mut failures = Vec::new();
    for (name, err, want_variant, fragment) in &rows {
        let message = err.to_string();
        if variant(err) != *want_variant || !message.contains(fragment) {
            failures.push(format!(
                "{name}: want {want_variant} containing {fragment:?}, got {}: {message}",
                variant(err)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
