//! `wp-campaign` — every experiment as one resumable DAG.
//!
//! Plans the figure suites and the trace/tune/chaos/obs/layout
//! baseline pipelines as a single content-addressed graph, serves
//! already-computed nodes from the store under `--store`/`$WP_STORE_DIR`,
//! executes the rest on a worker pool, and writes the same `BENCH_*.json`
//! manifests the standalone binaries write — byte-identically.
//!
//! Usage:
//!
//! ```text
//! wp-campaign run [--all] [--only SEL]... [--quick] [--store DIR]
//!                 [--workers N] [--input-tag BENCH=TAG]...
//! wp-campaign explain <label> [--quick] [--store DIR] [--input-tag ...]
//! wp-campaign gc --keep-last N [--store DIR]
//! ```
//!
//! `--only` takes a family (`fig`, `gate`) or a manifest name
//! (`fig4`, `tune`, `chaos`, `obs`, `layout`, …) and may repeat;
//! `run --all` (the default) runs everything. `--input-tag crc=v2`
//! re-tags one benchmark's input set, invalidating exactly its
//! dependent subgraph. `gc` prunes the store to the `N` most recently
//! used entries while pinning everything the current full and quick
//! plans can still demand.
//!
//! Exit codes: `0` clean, `1` a node failed, `2` usage/store error.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;
use std::sync::Arc;

use wp_bench::campaign::{self, CampaignConfig, Group, InputTags};
use wp_campaign::Store;
use wp_core::wp_workloads::Benchmark;
use wp_obs::Obs;

fn usage() -> ! {
    eprintln!(
        "usage: wp-campaign run [--all] [--only SEL]... [--quick] [--store DIR] [--workers N] \
         [--input-tag BENCH=TAG]...\n       wp-campaign explain <label> [--quick] [--store DIR] \
         [--input-tag BENCH=TAG]...\n       wp-campaign gc --keep-last N [--store DIR]"
    );
    std::process::exit(2);
}

fn store_at(explicit: Option<PathBuf>) -> Store {
    let root = explicit.or_else(wp_core::env::store_dir).unwrap_or_else(|| {
        eprintln!("wp-campaign: no store root: pass --store DIR or set $WP_STORE_DIR");
        std::process::exit(2);
    });
    Store::new(root)
}

fn parse_tag(spec: &str, tags: &mut InputTags) {
    let Some((name, tag)) = spec.split_once('=') else {
        eprintln!("wp-campaign: --input-tag wants BENCH=TAG, got {spec:?}");
        usage();
    };
    let Some(&benchmark) = Benchmark::ALL.iter().find(|b| b.name() == name) else {
        eprintln!("wp-campaign: unknown benchmark {name:?} in --input-tag");
        std::process::exit(2);
    };
    tags.set(benchmark, tag);
}

struct CommonArgs {
    quick: bool,
    store: Option<PathBuf>,
    tags: InputTags,
    groups: Vec<Group>,
    workers: usize,
    positional: Vec<String>,
}

fn parse_common(args: &[String]) -> CommonArgs {
    let mut out = CommonArgs {
        quick: false,
        store: None,
        tags: InputTags::default(),
        groups: Vec::new(),
        workers: 2,
        positional: Vec::new(),
    };
    let mut only: Vec<Group> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--all" => only = Group::ALL.to_vec(),
            "--quick" => out.quick = true,
            "--store" => out.store = Some(PathBuf::from(iter.next().unwrap_or_else(|| usage()))),
            "--workers" => {
                out.workers = iter
                    .next()
                    .and_then(|w| w.parse().ok())
                    .filter(|&w| w > 0)
                    .unwrap_or_else(|| usage());
            }
            "--only" => {
                let selector = iter.next().unwrap_or_else(|| usage());
                match Group::parse(selector) {
                    Some(groups) => {
                        for group in groups {
                            if !only.contains(&group) {
                                only.push(group);
                            }
                        }
                    }
                    None => {
                        eprintln!("wp-campaign: unknown --only selector {selector:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--input-tag" => parse_tag(iter.next().unwrap_or_else(|| usage()), &mut out.tags),
            flag if flag.starts_with("--") => usage(),
            positional => out.positional.push(positional.to_string()),
        }
    }
    out.groups = if only.is_empty() { Group::ALL.to_vec() } else { only };
    out
}

fn cmd_run(args: &[String]) -> i32 {
    let parsed = parse_common(args);
    if !parsed.positional.is_empty() {
        usage();
    }
    let store = store_at(parsed.store);
    let mut config = CampaignConfig::new(parsed.quick, parsed.groups);
    config.tags = parsed.tags;
    config.workers = parsed.workers;

    let obs = Obs::new();
    let started = std::time::Instant::now();
    let run = campaign::run(&config, &store, Some(&obs));

    for node in &run.report.nodes {
        use wp_campaign::Outcome;
        let verdict = match &node.outcome {
            Outcome::Pruned => continue, // never demanded: nothing to say
            Outcome::Hit => "hit",
            Outcome::Computed => "computed",
            Outcome::Skipped => "skipped (dependency failed)",
            Outcome::Failed(error) => {
                eprintln!("FAILED {}: {error}", node.label);
                continue;
            }
        };
        println!("{:<44} {verdict:<9} {}", node.label, node.key);
    }

    match campaign::write_manifests(&run) {
        Ok(paths) => {
            for path in paths {
                eprintln!("manifest: {}", path.display());
            }
        }
        Err(error) => {
            eprintln!("wp-campaign: writing manifests: {error}");
            return 2;
        }
    }

    // The greppable summary CI asserts on; hit/miss counts come from
    // the armed Obs registry, not the report, so the counters the
    // metrics satellite exposes are the numbers being gated.
    let hits = obs.metrics.counter_value("wp_campaign_store_hits_total").unwrap_or(0);
    let misses = obs.metrics.counter_value("wp_campaign_store_misses_total").unwrap_or(0);
    println!(
        "campaign: {} node(s), {hits} hit(s), {misses} miss(es), {} pruned, {} failed, {} \
         skipped, {} store put error(s), {:.1}s",
        run.report.nodes.len(),
        run.report.pruned(),
        run.report.failed(),
        run.report.skipped(),
        run.report.store_put_errors,
        started.elapsed().as_secs_f64(),
    );
    i32::from(!run.report.ok())
}

fn cmd_explain(args: &[String]) -> i32 {
    let parsed = parse_common(args);
    let [label] = parsed.positional.as_slice() else { usage() };
    let store = store_at(parsed.store);
    let mut config = CampaignConfig::new(parsed.quick, parsed.groups);
    config.tags = parsed.tags;

    let Some(explain) = campaign::explain(&config, &store, label) else {
        eprintln!(
            "wp-campaign: no node labelled {label:?} in this plan (try --quick or --only, or a \
             measure/… label printed by run)"
        );
        return 2;
    };
    println!("node:  {}", explain.label);
    println!("key:   {}", explain.key);
    println!("store: {}", if explain.in_store { "hit" } else { "miss" });
    println!("parts:");
    for part in &explain.parts {
        println!("  {part}");
    }
    if !explain.deps.is_empty() {
        println!("deps:");
        for (label, key, in_store) in &explain.deps {
            println!("  {:<44} {} {}", label, key, if *in_store { "hit" } else { "miss" });
        }
    }
    0
}

fn cmd_gc(args: &[String]) -> i32 {
    let mut keep_last: Option<usize> = None;
    let mut store_arg: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--keep-last" => {
                keep_last = iter.next().and_then(|n| n.parse().ok());
                if keep_last.is_none() {
                    usage();
                }
            }
            "--store" => store_arg = Some(PathBuf::from(iter.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    let Some(keep_last) = keep_last else { usage() };
    let store = store_at(store_arg);

    // Pin everything either mode's full plan could still demand, so a
    // gc racing a pending run never evicts a payload a node needs.
    let engine = Arc::new(wp_bench::Engine::with_workers(1));
    let mut pinned = Vec::new();
    for quick in [false, true] {
        let plan = campaign::plan(&CampaignConfig::all(quick), &engine);
        pinned.extend(plan.dag.all_keys());
    }

    match store.gc(keep_last, &pinned) {
        Ok(report) => {
            println!(
                "gc: kept {} entr{}, deleted {} ({} bytes freed), {} pinned",
                report.kept,
                if report.kept == 1 { "y" } else { "ies" },
                report.deleted,
                report.bytes_freed,
                pinned.len(),
            );
            0
        }
        Err(error) => {
            eprintln!("wp-campaign: gc: {error}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { usage() };
    let code = match command.as_str() {
        "run" => cmd_run(rest),
        "explain" => cmd_explain(rest),
        "gc" => cmd_gc(rest),
        _ => usage(),
    };
    std::process::exit(code);
}
