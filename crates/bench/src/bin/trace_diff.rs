//! `trace_diff` — exact comparison of two captures.
//!
//! Reads two files — a JSON manifest such as `BENCH_trace_report.json`,
//! or a `TRACE_*.jsonl` stream read as the array of its line records —
//! and compares them with the differ `gate` uses
//! (`wp_bench::baseline::Verdict`). The simulator is deterministic, so
//! nothing is forgiven: identical bytes pass, and otherwise every JSON
//! path whose value differs is printed with both values (`<left>` as
//! the blessed side, `<right>` as the fresh one), or the change is
//! reported as formatting only. The verdict is written to
//! `BENCH_trace_diff.json` (`trace_diff/v2`) in the shape of a
//! `BENCH_gate.json` manifest entry.
//!
//! Usage: `trace_diff <left> <right>`
//!
//! Exit codes: `0` byte-identical, `1` any difference (formatting
//! included), `2` usage error or an unreadable or unparseable file. A
//! reader that closes stdout early (`trace_diff a b | head`) cuts the
//! printed paths short but changes neither the report nor the code.

use std::path::Path;

use wp_bench::baseline::{Document, Verdict};
use wp_bench::{print_stdout, write_manifest, Json};
use wp_tune::TuneError;

fn usage() -> ! {
    eprintln!("usage: trace_diff <left> <right>");
    std::process::exit(2);
}

fn run() -> Result<i32, TuneError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [left, right] = args.as_slice() else { usage() };
    if left.starts_with('-') || right.starts_with('-') {
        usage();
    }
    let verdict =
        Verdict::compare(&Document::read(Path::new(left))?, &Document::read(Path::new(right))?);
    print_stdout(&format!("{left} vs {right}: {verdict}\n"));

    let identical = verdict == Verdict::Identical;
    let mut report = Json::obj([
        ("schema", Json::from("trace_diff/v2")),
        ("left", Json::from(left.as_str())),
        ("right", Json::from(right.as_str())),
    ]);
    verdict.push_json(&mut report);
    report.push("ok", Json::from(identical));
    let path = write_manifest("trace_diff", &report).map_err(|e| TuneError::Io {
        path: "BENCH_trace_diff.json".to_string(),
        message: e.to_string(),
    })?;
    eprintln!("manifest: {}", path.display());
    Ok(i32::from(!identical))
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(error) => {
            eprintln!("trace_diff: {error}");
            std::process::exit(2);
        }
    }
}
