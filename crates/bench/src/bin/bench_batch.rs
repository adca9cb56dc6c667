//! Concurrent batch-execution throughput sweep, emitting `BENCH_batch.json`.
//!
//! Usage:
//! `cargo run --release -p spear-bench --bin bench_batch [-- --n 512 --seed 140 --out BENCH_batch.json]`
//!
//! The speedup column uses the *simulated makespan* (busiest virtual-clock
//! lane), a deterministic function of workload, seed, and worker count —
//! the host wall column is informational and machine-dependent.

use spear_bench::batch_bench::{run, BatchBenchConfig};
use spear_bench::cli::{arg, arg_str};
use spear_bench::report::{f, Table};

fn main() {
    let config = BatchBenchConfig {
        n_pipelines: arg("--n", 512) as usize,
        seed: arg("--seed", 140),
        ..BatchBenchConfig::default()
    };
    let out_path = arg_str("--out", "BENCH_batch.json");
    eprintln!(
        "bench_batch: {} pipelines, seed {}, workers {:?}, model {} (simulated)",
        config.n_pipelines, config.seed, config.worker_counts, config.profile.name
    );
    let report = run(&config).expect("bench_batch run failed");

    let mut table = Table::new(&[
        "Workers",
        "Busy (s)",
        "Makespan (s)",
        "Speedup (x)",
        "Pipelines/s",
        "Cache Hit (%)",
        "Host Wall (s)",
        "Trace Digest",
    ]);
    for r in &report.rows {
        table.row(vec![
            r.workers.to_string(),
            f(r.busy_s, 2),
            f(r.makespan_s, 2),
            f(r.speedup, 2),
            f(r.throughput_pps, 1),
            f(r.cache_hit_pct, 1),
            f(r.host_wall_s, 2),
            r.trace_digest.clone(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "deterministic across worker counts: {}",
        report.deterministic
    );

    let json = serde_json::to_string(&report).expect("serializable report");
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_batch.json");
    eprintln!("wrote {out_path}");

    if !report.deterministic {
        eprintln!("FAIL: traces differ across worker counts — determinism invariant violated");
        std::process::exit(1);
    }
    let last = report.rows.last().expect("at least one worker count");
    if last.speedup < 2.0 {
        eprintln!(
            "FAIL: acceptance requires >=2x speedup at {} workers, got {:.2}x \
             (workload too small to parallelize?)",
            last.workers, last.speedup
        );
        std::process::exit(1);
    }
}
