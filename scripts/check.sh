#!/bin/sh
# Tier-1 gate: everything a PR must keep green. Runnable directly
# (`sh scripts/check.sh`) or via `just check`.
set -eux

cargo build --release
cargo test -q
cargo test --workspace -q
# Named gates (already part of the workspace run, re-run here so a failure
# is attributable at a glance): the three-way tree/interpreter/VM trace
# equivalence and the compiled-program cache soundness suites.
cargo test -p spear-core --test trace_equivalence -q
cargo test -p spear-serve --test program_cache -q
# Static-analysis gate: bytecode lints, translation validation, and the
# verified optimizer's bisimulation check over the golden plan corpus.
cargo run --release -p spear-bench --bin analyze
# Cluster scale-out gate: exits non-zero below 0.7x ideal scaling at 8
# nodes, if hash-random matches prefix-aware on fleet hit rate, or on
# any cross-lane fingerprint divergence (incl. churn replay).
cargo run --release -p spear-bench --bin bench_cluster -- --out BENCH_cluster.json
# Generation-reuse gate: exits non-zero below 1.5x host throughput with
# the whole-call memo on, on any fingerprint divergence from reuse-off,
# or if the hit/coalesced ledger varies across lane counts.
cargo run --release -p spear-bench --bin bench_serve -- --reuse --out BENCH_reuse.json
# Serve-artifact gates: regenerate the unconstrained and memory-pressure
# sweeps into a temp directory (the checked-in files are never written)
# and require every field except host wall time to match exactly.
serve_tmp=$(mktemp -d)
trap 'rm -rf "$serve_tmp"' EXIT
cargo run --release -p spear-bench --bin bench_serve -- --out "$serve_tmp/BENCH_serve.json"
cargo run --release -p spear-bench --bin bench_diff -- BENCH_serve.json "$serve_tmp/BENCH_serve.json"
cargo run --release -p spear-bench --bin bench_serve -- --pressure --out "$serve_tmp/BENCH_serve_pressure.json"
cargo run --release -p spear-bench --bin bench_diff -- BENCH_serve_pressure.json "$serve_tmp/BENCH_serve_pressure.json"
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
