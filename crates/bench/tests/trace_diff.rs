//! The `trace_diff` binary end to end: two captures compared exactly
//! through the gate's path differ, with exit code 0 for identical
//! bytes, 1 for any difference and 2 for a usage error or an unreadable
//! or unparseable file.

use std::path::{Path, PathBuf};
use std::process::Command;

use wp_bench::Json;

/// A fresh, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wp-trace-diff-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write(path: &Path, text: &str) -> String {
    std::fs::write(path, text).expect("write capture");
    path.display().to_string()
}

/// Runs `trace_diff args…` with its report directed into `dir`, and
/// returns the exit code with the `BENCH_trace_diff.json` it wrote, if
/// it wrote one.
fn trace_diff(dir: &Path, args: &[&str]) -> (Option<i32>, Option<Json>) {
    let report = dir.join("BENCH_trace_diff.json");
    let _ = std::fs::remove_file(&report);
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args(args)
        .env("WP_BENCH_DIR", dir)
        .output()
        .expect("run trace_diff");
    let written = std::fs::read_to_string(&report)
        .ok()
        .map(|text| Json::parse(&text).expect("BENCH_trace_diff.json parses"));
    (out.status.code(), written)
}

fn verdict(report: &Json) -> &str {
    report.get("verdict").and_then(Json::as_str).expect("verdict")
}

#[test]
fn manifests_compare_exactly_and_name_every_path() {
    let dir = scratch("manifest");
    let blessed =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/BENCH_trace_report.json");
    let text = std::fs::read_to_string(&blessed).expect("read blessed trace report");
    let blessed = blessed.display().to_string();

    let (code, report) = trace_diff(&dir, &[&blessed, &blessed]);
    let report = report.expect("report");
    assert_eq!(code, Some(0));
    assert_eq!(report.get("schema").and_then(Json::as_str), Some("trace_diff/v2"));
    assert_eq!((verdict(&report), report.get("paths")), ("identical", None));

    // One cycle more in the first run: a 2% tolerance would forgive it.
    let document = Json::parse(&text).expect("blessed manifest parses");
    let run = &document.get("runs").and_then(Json::as_array).expect("runs")[0];
    let cycles = run.get("cycles").and_then(Json::as_u64).expect("runs[0].cycles");
    let bumped =
        text.replacen(&format!("\"cycles\": {cycles}"), &format!("\"cycles\": {}", cycles + 1), 1);
    let bumped = write(&dir.join("cycles.json"), &bumped);
    let (code, report) = trace_diff(&dir, &[&blessed, &bumped]);
    let report = report.expect("report");
    assert_eq!(code, Some(1));
    assert_eq!(verdict(&report), "differs");
    let expected = Json::obj([
        ("path", Json::from("runs[0].cycles")),
        ("blessed", Json::Uint(cycles)),
        ("fresh", Json::Uint(cycles + 1)),
    ]);
    assert_eq!(report.get("paths"), Some(&Json::arr([expected])));

    // The same values in other bytes: exit 1, reported as formatting.
    let compact = write(&dir.join("compact.json"), &document.to_compact());
    let (code, report) = trace_diff(&dir, &[&blessed, &compact]);
    let report = report.expect("report");
    assert_eq!(code, Some(1));
    assert_eq!((verdict(&report), report.get("paths")), ("formatting", None));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn jsonl_streams_compare_record_by_record() {
    let dir = scratch("jsonl");
    let stream = concat!(
        "{\"type\":\"meta\",\"events_recorded\":100,\"chains\":2}\n",
        "{\"type\":\"chain\",\"chain\":0,\"label\":\"main\",\"fetches\":90,",
        "\"tag_comparisons\":90}\n",
        "{\"type\":\"unattributed\",\"fetches\":10,\"tag_comparisons\":320}\n",
    );
    let left = write(&dir.join("TRACE_left.jsonl"), stream);
    let right =
        write(&dir.join("TRACE_right.jsonl"), &stream.replace("\"fetches\":90", "\"fetches\":91"));

    assert_eq!(trace_diff(&dir, &[&left, &left]).0, Some(0));
    let (code, report) = trace_diff(&dir, &[&left, &right]);
    let report = report.expect("report");
    assert_eq!(code, Some(1));
    let paths = report.get("paths").and_then(Json::as_array).expect("paths");
    let named: Vec<&str> = paths
        .iter()
        .map(|p| p.get("path").and_then(Json::as_str).expect("path"))
        .collect();
    assert_eq!(named, ["[1].fetches"]);

    let _ = std::fs::remove_dir_all(dir);
}

/// A reader that has gone away cuts the printed paths short, but the
/// verdict still reaches the report and the exit code: no panic, no
/// 101. The report is larger than a pipe buffer, so no write can slip
/// into the pipe before its read end is found closed.
#[test]
fn closed_stdout_keeps_the_verdict() {
    let dir = scratch("closed-stdout");
    let values = |v: u32| Json::arr((0..5000).map(|_| Json::from(v)));
    let left = write(&dir.join("left.json"), &Json::obj([("values", values(0))]).to_pretty());
    let right = write(&dir.join("right.json"), &Json::obj([("values", values(1))]).to_pretty());
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([&left, &right])
        .env("WP_BENCH_DIR", &dir)
        .stdout(writer)
        .output()
        .expect("run trace_diff");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let report = std::fs::read_to_string(dir.join("BENCH_trace_diff.json")).expect("report");
    let report = Json::parse(&report).expect("BENCH_trace_diff.json parses");
    assert_eq!(verdict(&report), "differs");
    assert_eq!(report.get("paths").and_then(Json::as_array).map(<[Json]>::len), Some(5000));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn usage_errors_and_unreadable_files_exit_2() {
    let dir = scratch("usage");
    let good = write(&dir.join("good.json"), "{\"runs\":[]}");
    let text = write(&dir.join("text.json"), "not json at all\n");
    let torn = write(&dir.join("TRACE_torn.jsonl"), "{\"type\":\"meta\"}\n{\"type\":\n");
    let missing = dir.join("missing.json").display().to_string();
    for args in [
        vec!["--rel", "0.1", good.as_str(), good.as_str()],
        vec![good.as_str()],
        vec![good.as_str(), missing.as_str()],
        vec![text.as_str(), text.as_str()],
        vec![good.as_str(), text.as_str()],
        vec![torn.as_str(), torn.as_str()],
    ] {
        let (code, report) = trace_diff(&dir, &args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(report.is_none(), "{args:?} wrote a report");
    }
    let _ = std::fs::remove_dir_all(dir);
}
