#!/usr/bin/env bash
# CI gate for the way-placement reproduction.
#
#   scripts/ci.sh          # full gate: fmt, clippy, build, tests, smoke
#   scripts/ci.sh --quick  # skip the release build + full test suite
#
# Everything runs offline: the workspace has no external dependencies.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== fmt check =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$quick" -eq 1 ]]; then
    echo "== rustdoc (deny warnings) =="
    # --lib: the wp-campaign binary and library would collide in doc/.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

    echo "== SoA/per-line differential equivalence (quick sweep) =="
    WP_QUICK=1 cargo test -q -p wp-mem --test soa_equivalence

    echo "== executor golden (every op form, condition and fault path) =="
    cargo test -q -p wp-core --test executor_golden

    echo "== a one-worker engine runs its jobs on the calling thread =="
    cargo test -q -p wp-bench --lib a_one_worker_engine_runs_jobs_on_the_calling_thread

    echo "== tag-parity disagreement bitset vs recomputed parity =="
    cargo test -q -p wp-mem --lib parity_bitset_matches_recomputed_parity

    echo "== a machine built without same-line elision never elides =="
    cargo test -q -p wp-mem --lib no_elision_machine_never_elides_after_a_scheme_switch

    echo "== linker branch-target validation regressions =="
    cargo test -q -p wp-linker malformed

    echo "== layout-equivalence properties (quick sweep) =="
    WP_QUICK=1 cargo test -q -p wp-bench --test layout_equivalence

    echo "== lock-step lane equivalence (quick sweep) =="
    WP_QUICK=1 cargo test -q -p wp-bench --test lane_equivalence

    echo "== traced and untraced runs agree under every scheme and degradation =="
    cargo test -q -p wp-sim --lib traced_and_untraced_runs_agree_under_every_scheme_and_degradation

    echo "== per-line fetch equals the per-fetch path; a NullSink run skips same-line fetches =="
    cargo test -q -p wp-mem --lib same_line_repeats_match_per_fetch_calls
    cargo test -q -p wp-sim --lib mixed_lane_groups_equal_their_per_fetch_runs
    cargo test -q -p wp-sim --lib null_sink_runs_call_the_fetch_core_only_on_line_changes

    echo "== layout competition smoke (six passes, both schemes) =="
    lc_dir="$(mktemp -d)"
    WP_BENCH_DIR="$lc_dir" cargo run --release -q --bin layout_compare -- --quick
    if [[ ! -s "$lc_dir/BENCH_layout_compare.json" ]]; then
        echo "missing manifest: BENCH_layout_compare.json" >&2
        exit 1
    fi
    rm -rf "$lc_dir"

    echo "== chaos-campaign smoke (detection, degradation) =="
    smoke_chaos_dir="$(mktemp -d)"
    WP_BENCH_DIR="$smoke_chaos_dir" cargo run --release -q --bin chaos_campaign -- --quick
    if [[ ! -s "$smoke_chaos_dir/BENCH_chaos_campaign.json" ]]; then
        echo "missing manifest: BENCH_chaos_campaign.json" >&2
        exit 1
    fi
    rm -rf "$smoke_chaos_dir"

    echo "== obs_report smoke (reconcile + journal determinism + sabotage) =="
    obs_dir_a="$(mktemp -d)"
    obs_dir_b="$(mktemp -d)"
    WP_BENCH_DIR="$obs_dir_a" cargo run --release -q --bin obs_report -- --quick
    WP_BENCH_DIR="$obs_dir_b" cargo run --release -q --bin obs_report -- --quick >/dev/null
    # Two armed runs must serialise to byte-identical journals, and
    # their manifests, which hold no wall-clock reading, must compare
    # identical.
    if ! cmp -s "$obs_dir_a/OBS_journal.jsonl" "$obs_dir_b/OBS_journal.jsonl"; then
        echo "armed journals diverged across identical runs" >&2
        exit 1
    fi
    WP_BENCH_DIR="$obs_dir_a" cargo run --release -q --bin trace_diff -- \
        "$obs_dir_a/BENCH_obs_report.json" "$obs_dir_b/BENCH_obs_report.json"
    # An injected metric mismatch must fail the cross-checks with exit
    # code exactly 1.
    obs_code=0
    WP_BENCH_DIR="$obs_dir_a" cargo run --release -q --bin obs_report -- --quick --sabotage \
        >/dev/null || obs_code=$?
    if [[ "$obs_code" -ne 1 ]]; then
        echo "obs_report --sabotage: expected exit 1, got $obs_code" >&2
        exit 1
    fi
    rm -rf "$obs_dir_a" "$obs_dir_b"

    echo "== stored-baseline smoke (self-bless + gate + perturbed) =="
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    cargo run -q --bin bless -- --quick --dir "$smoke_dir/baselines"
    WP_BENCH_DIR="$smoke_dir" cargo run -q --bin gate -- --quick --dir "$smoke_dir/baselines"
    cp -r "$smoke_dir/baselines" "$smoke_dir/cycles"
    # Perturb one blessed chain energy by ~10x; the gate must flag it
    # and exit with code exactly 1 (2 would mean a broken invocation).
    sed -i '0,/"energy_pj": /s/"energy_pj": /"energy_pj": 9/' \
        "$smoke_dir/baselines/BENCH_trace_report.json"
    gate_code=0
    WP_BENCH_DIR="$smoke_dir" cargo run -q --bin gate -- --quick --dir "$smoke_dir/baselines" \
        || gate_code=$?
    if [[ "$gate_code" -ne 1 ]]; then
        echo "gate on a perturbed baseline: expected exit 1, got $gate_code" >&2
        exit 1
    fi
    # One cycle more in the first traced run: the byte-exact gate must
    # exit exactly 1 and name the JSON path in its report.
    awk '!bumped && match($0, /"cycles": [0-9]+/) {
            cycles = substr($0, RSTART + 10, RLENGTH - 10) + 1
            $0 = substr($0, 1, RSTART - 1) "\"cycles\": " cycles substr($0, RSTART + RLENGTH)
            bumped = 1
        } { print }' "$smoke_dir/cycles/BENCH_trace_report.json" \
        >"$smoke_dir/cycles/BENCH_trace_report.json.new"
    mv "$smoke_dir/cycles/BENCH_trace_report.json.new" "$smoke_dir/cycles/BENCH_trace_report.json"
    gate_code=0
    WP_BENCH_DIR="$smoke_dir" cargo run -q --bin gate -- --quick --dir "$smoke_dir/cycles" \
        || gate_code=$?
    if [[ "$gate_code" -ne 1 ]]; then
        echo "gate on a one-cycle drift: expected exit 1, got $gate_code" >&2
        exit 1
    fi
    if ! grep -qF '"path": "runs[0].cycles"' "$smoke_dir/BENCH_gate.json"; then
        echo "gate report does not name runs[0].cycles" >&2
        exit 1
    fi

    echo "== a killed campaign resumes through the store =="
    cargo test -q -p wp-bench --test campaign killed_campaign_resumes_through_the_store

    echo "== campaign figure suites equal a direct engine run =="
    cargo test -q -p wp-bench --test campaign campaign_figure_suites_equal_a_direct_engine_run

    echo "== campaign DAG smoke (cold run, then warm zero-miss rerun) =="
    camp_store="$(mktemp -d)"
    camp_a="$(mktemp -d)"
    camp_b="$(mktemp -d)"
    WP_BENCH_DIR="$camp_a" WP_STORE_DIR="$camp_store" cargo run --release -q \
        --bin wp-campaign -- run --all --quick | tee "$camp_a/summary.txt"
    WP_BENCH_DIR="$camp_b" WP_STORE_DIR="$camp_store" cargo run --release -q \
        --bin wp-campaign -- run --all --quick | tee "$camp_b/summary.txt"
    # The second run against the same store must resolve every root
    # from cache: zero misses, and byte-identical manifests.
    if ! grep -qF ' 0 miss(es),' "$camp_b/summary.txt"; then
        echo "warm campaign rerun re-computed nodes (expected 0 misses)" >&2
        exit 1
    fi
    for manifest in "$camp_a"/BENCH_*.json; do
        if ! cmp -s "$manifest" "$camp_b/$(basename "$manifest")"; then
            echo "warm campaign manifest diverged: $(basename "$manifest")" >&2
            exit 1
        fi
    done
    rm -rf "$camp_store" "$camp_a" "$camp_b"
fi

if [[ "$quick" -eq 0 ]]; then
    echo "== tier-1 gate: release build =="
    cargo build --release

    echo "== tier-1 gate: full test suite =="
    cargo test -q

    echo "== manifest smoke test =="
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin table1 >/dev/null
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin fig1 >/dev/null
    for manifest in BENCH_table1.json BENCH_fig1.json; do
        if [[ ! -s "$smoke_dir/$manifest" ]]; then
            echo "missing manifest: $manifest" >&2
            exit 1
        fi
    done
    echo "manifests OK: $(ls "$smoke_dir")"

    echo "== fault-campaign smoke (exit 1 on silent corruption) =="
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin fault_campaign -- --quick
    if [[ ! -s "$smoke_dir/BENCH_fault_campaign.json" ]]; then
        echo "missing manifest: BENCH_fault_campaign.json" >&2
        exit 1
    fi

    echo "== chaos-campaign soak (full suite, escalating fault ladder) =="
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin chaos_campaign
    if [[ ! -s "$smoke_dir/BENCH_chaos_campaign.json" ]]; then
        echo "missing manifest: BENCH_chaos_campaign.json" >&2
        exit 1
    fi

    echo "== trace telemetry smoke (reconcile + manifest re-check) =="
    WP_TRACE=1 WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin trace_report -- --quick
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin trace_report -- --check
    if [[ ! -s "$smoke_dir/BENCH_trace_report.json" ]]; then
        echo "missing manifest: BENCH_trace_report.json" >&2
        exit 1
    fi

    echo "== autotune smoke (deterministic tuned-areas manifest) =="
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin tune -- --quick
    if [[ ! -s "$smoke_dir/BENCH_tuned_areas.json" ]]; then
        echo "missing manifest: BENCH_tuned_areas.json" >&2
        exit 1
    fi

    echo "== trace_diff smoke (self-diffs exit 0, perturbed exit 1) =="
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin trace_diff -- \
        "$smoke_dir/BENCH_trace_report.json" "$smoke_dir/BENCH_trace_report.json"
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin trace_diff -- \
        "$smoke_dir/TRACE_crc_way-placement-32KB.jsonl" \
        "$smoke_dir/TRACE_crc_way-placement-32KB.jsonl"
    # Perturb the first icache_pj value by an order of magnitude; the
    # exact differ must exit with code 1 and name the JSON path.
    sed '0,/"icache_pj": /s/"icache_pj": /"icache_pj": 9/' \
        "$smoke_dir/BENCH_trace_report.json" >"$smoke_dir/BENCH_trace_report_perturbed.json"
    diff_code=0
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin trace_diff -- \
        "$smoke_dir/BENCH_trace_report.json" "$smoke_dir/BENCH_trace_report_perturbed.json" \
        || diff_code=$?
    if [[ "$diff_code" -ne 1 ]]; then
        echo "trace_diff on a perturbed manifest: expected exit 1, got $diff_code" >&2
        exit 1
    fi
    if ! grep -qF '"path": "runs[0].icache_pj"' "$smoke_dir/BENCH_trace_diff.json"; then
        echo "trace_diff report does not name runs[0].icache_pj" >&2
        exit 1
    fi

    echo "== obs_report (full reconciliation + armed overhead bound) =="
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin obs_report
    if [[ ! -s "$smoke_dir/BENCH_obs_report.json" ]]; then
        echo "missing manifest: BENCH_obs_report.json" >&2
        exit 1
    fi

    echo "== layout competition (full matrix, sixth baseline manifest) =="
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin layout_compare
    if [[ ! -s "$smoke_dir/BENCH_layout_compare.json" ]]; then
        echo "missing manifest: BENCH_layout_compare.json" >&2
        exit 1
    fi

    echo "== stored-baseline gate (committed baselines/, via campaign store) =="
    gate_store="$(mktemp -d)"
    # The cold pass computes and populates the store; the second pass
    # must serve every fresh manifest as a pure hit and cost seconds.
    WP_BENCH_DIR="$smoke_dir" WP_STORE_DIR="$gate_store" cargo run --release -q \
        --bin gate -- --dir baselines
    WP_BENCH_DIR="$smoke_dir" WP_STORE_DIR="$gate_store" cargo run --release -q \
        --bin gate -- --dir baselines
    rm -rf "$gate_store"
    if [[ ! -s "$smoke_dir/BENCH_gate.json" ]]; then
        echo "missing manifest: BENCH_gate.json" >&2
        exit 1
    fi

    echo "== tuned-areas validation (fig5 --areas vs committed baseline) =="
    WP_BENCH_DIR="$smoke_dir" cargo run --release -q --bin fig5 -- \
        --areas baselines/BENCH_tuned_areas.json >/dev/null
fi

echo "== CI gate passed =="
