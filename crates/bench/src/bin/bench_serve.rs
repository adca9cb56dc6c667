//! Serving-layer affinity sweep, emitting `BENCH_serve.json`.
//!
//! Usage:
//! `cargo run --release -p spear-bench --bin bench_serve [-- --n 384 --seed 140 --families 6 --out BENCH_serve.json]`
//!
//! Serves the same seeded open-loop workload with cache-affinity routing
//! on and off at each lane count. Acceptance: affinity routing must lift
//! the prefix-cache hit rate, and traces must be identical across lane
//! counts for a fixed affinity setting.
//!
//! With `--pressure`, runs the memory-pressure sweep instead (emitting
//! `BENCH_serve_pressure.json` by default): a burstier multi-GEN
//! workload against a bounded KV block pool. Acceptance additionally
//! requires the pool to have visibly contended (`evicted_blocks > 0`,
//! `preempted > 0`) and the contended counters — not just the
//! fingerprints — to be identical at every lane count.
//!
//! With `--reuse`, runs the generation-reuse sweep instead (emitting
//! `BENCH_reuse.json` by default): a duplicate-heavy multi-GEN workload
//! served with the whole-call memo on and off at each lane count.
//! Acceptance: host throughput with reuse on at least `1.5×` reuse off,
//! memo hits and single-flight coalescing both exercised (`hits > 0`,
//! `coalesced > 0`), reuse-on trace fingerprints identical to reuse-off
//! at every lane count, and the reuse ledger identical across lane
//! counts.

use spear_bench::cli::{arg, arg_str};
use spear_bench::report::{f, Table};
use spear_bench::serve_bench::{pressure_config, reuse_config, run, run_reuse, ServeBenchConfig};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn reuse_main() {
    let mut config = reuse_config();
    config.load.requests = arg("--n", config.load.requests as u64) as usize;
    config.load.seed = arg("--seed", config.load.seed);
    config.load.families = arg("--families", config.load.families as u64) as usize;
    let out_path = arg_str("--out", "BENCH_reuse.json");
    eprintln!(
        "bench_serve --reuse: {} requests ({:.0}% duplicates), {} families, seed {}, \
         {} GEN slots/plan, lanes {:?}, model {} (simulated)",
        config.load.requests,
        config.load.duplicate_share * 100.0,
        config.load.families,
        config.load.seed,
        config.load.gen_calls,
        config.lane_counts,
        config.profile.name
    );
    let report = run_reuse(&config);

    let mut table = Table::new(&[
        "Lanes",
        "Reuse",
        "Completed",
        "Host wall (s)",
        "Host req/s",
        "Hits",
        "Coalesced",
        "Inserted",
        "Saved tokens",
        "Makespan (s)",
        "Fingerprint",
    ]);
    for r in &report.rows {
        table.row(vec![
            r.lanes.to_string(),
            if r.reuse { "on" } else { "off" }.to_string(),
            r.completed.to_string(),
            f(r.host_wall_s, 3),
            f(r.host_rps, 0),
            r.reuse_report.hits.to_string(),
            r.reuse_report.coalesced.to_string(),
            r.reuse_report.inserted.to_string(),
            r.reuse_report.saved_tokens.to_string(),
            f(r.makespan_s, 2),
            r.trace_fingerprint.clone(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "reuse speedup: {:.2}x host throughput; digests match reuse-off: {}; \
         ledger lane-invariant: {}",
        report.speedup_x, report.digests_match, report.counters_lane_invariant
    );

    let json = serde_json::to_string(&report).expect("serializable report");
    std::fs::write(&out_path, format!("{json}\n")).expect("write report JSON");
    eprintln!("wrote {out_path}");

    if !report.digests_match {
        eprintln!(
            "FAIL: reuse-on trace fingerprints differ from reuse-off — the memo \
             must be observationally invisible"
        );
        std::process::exit(1);
    }
    if !report.counters_lane_invariant {
        eprintln!("FAIL: reuse ledger differs across lane counts");
        std::process::exit(1);
    }
    if report.hits == 0 || report.coalesced == 0 {
        eprintln!(
            "FAIL: the sweep must exercise both plain memo hits and single-flight \
             coalescing, got hits {} coalesced {}",
            report.hits, report.coalesced
        );
        std::process::exit(1);
    }
    if report.speedup_x < 1.5 {
        eprintln!(
            "FAIL: acceptance requires >= 1.5x host throughput with reuse on, \
             got {:.2}x",
            report.speedup_x
        );
        std::process::exit(1);
    }
    println!(
        "reuse gate: {:.2}x >= 1.5x, hits {} > 0, coalesced {} > 0, digests and \
         ledger pinned",
        report.speedup_x, report.hits, report.coalesced
    );
}

fn main() {
    if flag("--reuse") {
        reuse_main();
        return;
    }
    let pressure = flag("--pressure");
    let mut config = if pressure {
        pressure_config()
    } else {
        ServeBenchConfig::default()
    };
    config.load.requests = arg("--n", config.load.requests as u64) as usize;
    config.load.seed = arg("--seed", config.load.seed);
    config.load.families = arg("--families", config.load.families as u64) as usize;
    let default_out = if pressure {
        "BENCH_serve_pressure.json"
    } else {
        "BENCH_serve.json"
    };
    let out_path = arg_str("--out", default_out);
    eprintln!(
        "bench_serve{}: {} requests, {} families, seed {}, lanes {:?}, model {} (simulated)",
        if pressure { " --pressure" } else { "" },
        config.load.requests,
        config.load.families,
        config.load.seed,
        config.lane_counts,
        config.profile.name
    );
    if let Some(kv) = &config.pressure {
        eprintln!(
            "  KV pool: {} blocks x {} tokens, {} batched tokens/iter, \
             prefill chunk {}, max {} running seqs",
            kv.pool_blocks,
            kv.block_size,
            kv.max_batched_tokens,
            kv.prefill_chunk_tokens,
            kv.max_running_seqs
        );
    }
    let report = run(&config);

    let mut table = Table::new(&[
        "Lanes",
        "Affinity",
        "Completed",
        "Rejected",
        "Hit (%)",
        "Int Hit (%)",
        "Batch Hit (%)",
        "Int p99 (ms)",
        "Makespan (s)",
        "Preempted",
        "Evicted",
        "Fingerprint",
    ]);
    for r in &report.rows {
        table.row(vec![
            r.lanes.to_string(),
            if r.affinity { "on" } else { "off" }.to_string(),
            r.completed.to_string(),
            r.rejected.to_string(),
            f(r.cache_hit_pct, 1),
            f(r.interactive_hit_pct, 1),
            f(r.batch_hit_pct, 1),
            f(r.interactive_p99_ms, 1),
            f(r.makespan_s, 2),
            r.preempted.to_string(),
            r.evicted_blocks.to_string(),
            r.trace_fingerprint.clone(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "affinity hit-rate lift: {:+.1} points (mean over lane counts); \
         deterministic across lane counts: {}",
        report.affinity_lift_pct, report.deterministic
    );

    let json = serde_json::to_string(&report).expect("serializable report");
    std::fs::write(&out_path, format!("{json}\n")).expect("write report JSON");
    eprintln!("wrote {out_path}");

    if !report.deterministic {
        eprintln!(
            "FAIL: trace fingerprints differ across lane counts — determinism invariant violated"
        );
        std::process::exit(1);
    }
    if report.affinity_lift_pct <= 0.0 {
        eprintln!(
            "FAIL: acceptance requires a higher cache hit rate with affinity \
             routing on than off, got {:+.1} points",
            report.affinity_lift_pct
        );
        std::process::exit(1);
    }
    if pressure {
        // The pressure gate: the pool must have visibly contended, and
        // every contended counter must be identical at every lane count
        // (per affinity setting).
        for affinity in [true, false] {
            let rows: Vec<_> = report
                .rows
                .iter()
                .filter(|r| r.affinity == affinity)
                .collect();
            let first = rows.first().expect("sweep produced rows");
            if first.preempted == 0 || first.evicted_blocks == 0 {
                eprintln!(
                    "FAIL: pressure run must contend (affinity {}: preempted {}, evicted {})",
                    affinity, first.preempted, first.evicted_blocks
                );
                std::process::exit(1);
            }
            for r in &rows[1..] {
                if r.report.kv != first.report.kv || r.preempted != first.preempted {
                    eprintln!(
                        "FAIL: KV counters differ across lane counts (affinity {affinity}): \
                         {:?} lanes {} vs {:?} lanes {}",
                        first.report.kv, first.lanes, r.report.kv, r.lanes
                    );
                    std::process::exit(1);
                }
            }
        }
        println!(
            "pressure gate: preempted and evicted counters nonzero and \
             lane-invariant at every lane count"
        );
    }
}
