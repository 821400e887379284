//! Figure 6 reproduction: average normalised I-cache energy (a) and ED
//! product (b) across the {16, 32, 64} KB x {8, 16, 32}-way grid, for
//! way-memoization and two way-placement area sizes (8 KB and 2 KB).
//!
//! Paper shape targets: way-placement reduces energy at *every* point;
//! >=59% savings in the 64 KB/32-way cache (the best ED, ~0.80); at the
//! > low-associativity corner way-memoization's advantage collapses
//! > (the paper reports it *increasing* energy) while way-placement
//! > still reduces energy to ~82%.
//!
//! The whole grid is ONE engine experiment (9 geometries x 3 schemes x
//! all benchmarks): each benchmark is assembled and profiled exactly
//! once for all nine cache points.

use wp_bench::campaign::{keys, provenance_json, InputTags};
use wp_bench::{figure6_geometries, finish, mean_ed, mean_energy, Engine, Experiment, Json};
use wp_core::wp_workloads::Benchmark;
use wp_core::Scheme;

fn main() {
    let schemes = [
        Scheme::WayMemoization,
        Scheme::WayPlacement { area_bytes: 8 * 1024 },
        Scheme::WayPlacement { area_bytes: 2 * 1024 },
    ];
    println!("== Figure 6: cache size x associativity grid ==");
    println!(
        "{:<26} | {:>16} | {:>16} | {:>16}",
        "cache", "way-memo (E%,ED)", "wp 8KB (E%,ED)", "wp 2KB (E%,ED)"
    );
    let experiment = Experiment::new(Benchmark::ALL, figure6_geometries(), schemes);
    let report = Engine::global().run(&experiment);

    let mut best_ed = (f64::INFINITY, String::new());
    for geom in figure6_geometries() {
        let rows = report.rows_for(geom);
        if rows.is_empty() {
            println!("{:<26} | (no completed rows)", geom.to_string());
            continue;
        }
        let cells: Vec<String> = (0..schemes.len())
            .map(|i| format!("{:>6.1}%, {:>5.3}", mean_energy(&rows, i) * 100.0, mean_ed(&rows, i)))
            .collect();
        println!("{:<26} | {} | {} | {}", geom.to_string(), cells[0], cells[1], cells[2]);
        for (i, scheme) in schemes.iter().enumerate().skip(1) {
            let ed = mean_ed(&rows, i);
            if ed < best_ed.0 {
                best_ed = (ed, format!("{geom} / {}", scheme.label()));
            }
        }
    }
    println!();
    println!(
        "best way-placement ED: {:.3} at {}   (paper: 0.80 at 64KB, 32-way)",
        best_ed.0, best_ed.1
    );
    println!("paper: way-placement saves energy at every point; >=59% saving at 64KB/32-way;");
    println!("       way-memoization's advantage collapses at low associativity.");

    // The deterministic manifest subset plus the campaign task key:
    // byte-identical to what a warm `wp-campaign run` assembles.
    let key = keys::fig_manifest("fig6", &experiment, &InputTags::default());
    let mut manifest = Json::obj([("figure", Json::from("fig6"))]);
    manifest.push("suite", report.results_json());
    manifest.push("provenance", provenance_json(&key));
    std::process::exit(finish("fig6", &report, &manifest));
}
