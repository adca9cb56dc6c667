//! Cluster scale-out sweep, emitting `BENCH_cluster.json`.
//!
//! Usage:
//! `cargo run --release -p spear-bench --bin bench_cluster [-- --n 1536 --seed 140 --families 12 --zipf 1.1 --out BENCH_cluster.json]`
//!
//! Serves one seeded Zipf-skewed workload through simulated fleets of
//! 1→16 single-lane nodes under prefix-aware and hash-random placement.
//! Acceptance: at 8 nodes the prefix-aware fleet must reach at least
//! 0.7× ideal linear scaling, prefix-aware must beat hash-random on
//! fleet-wide cache hit rate at every multi-node count, and the cluster
//! trace fingerprint must be identical across host worker-lane counts —
//! including a join → drain → leave churn schedule replayed at each
//! lane count.

use spear_bench::cli::{arg, arg_f64, arg_str};
use spear_bench::cluster_bench::{run, ClusterBenchConfig};
use spear_bench::report::{f, Table};

fn main() {
    let mut config = ClusterBenchConfig::default();
    config.load.requests = arg("--n", config.load.requests as u64) as usize;
    config.load.seed = arg("--seed", config.load.seed);
    config.load.families = arg("--families", config.load.families as u64) as usize;
    config.load.family_zipf = arg_f64("--zipf", config.load.family_zipf);
    let out_path = arg_str("--out", "BENCH_cluster.json");

    eprintln!(
        "bench_cluster: {} requests, {} families, zipf {}, seed {}, \
         fleets {:?} ({} lane(s)/node), model {} (simulated)",
        config.load.requests,
        config.load.families,
        config.load.family_zipf,
        config.load.seed,
        config.node_counts,
        config.node_lanes,
        config.profile.name
    );
    let report = run(&config);

    let mut table = Table::new(&[
        "Nodes",
        "Policy",
        "Completed",
        "Tput (req/s)",
        "Scaling",
        "Eff",
        "Fleet Hit (%)",
        "Imbalance",
        "Makespan (s)",
        "Repl",
        "P2C",
        "Fingerprint",
    ]);
    for r in &report.rows {
        table.row(vec![
            r.nodes.to_string(),
            r.policy.clone(),
            r.completed.to_string(),
            f(r.throughput_rps, 1),
            format!("{}x", f(r.scaling_x, 2)),
            f(r.efficiency, 2),
            f(r.fleet_hit_pct, 1),
            f(r.imbalance, 2),
            f(r.makespan_s, 2),
            r.replicated_families.to_string(),
            r.p2c_balanced.to_string(),
            r.trace_fingerprint.clone(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "scaling at {} nodes: {} of ideal; prefix beats hash on fleet hit rate: {}; \
         lane-invariant: {}; churn replay invariant: {} ({} handoffs)",
        report.gate_nodes,
        f(report.scaling_efficiency, 2),
        report.prefix_beats_hash,
        report.lane_invariant,
        report.churn_invariant,
        report.churn_handoffs,
    );

    let json = serde_json::to_string(&report).expect("serializable report");
    std::fs::write(&out_path, format!("{json}\n")).expect("write report JSON");
    eprintln!("wrote {out_path}");

    if report.scaling_efficiency < 0.7 {
        eprintln!(
            "FAIL: acceptance requires >= 0.7x ideal throughput at {} nodes, got {:.2}x",
            report.gate_nodes, report.scaling_efficiency
        );
        std::process::exit(1);
    }
    if !report.prefix_beats_hash {
        eprintln!(
            "FAIL: prefix-aware placement must beat hash-random on fleet-wide \
             cache hit rate at every multi-node count"
        );
        std::process::exit(1);
    }
    if !report.lane_invariant || !report.churn_invariant {
        eprintln!(
            "FAIL: cluster trace fingerprints differ across host lane counts \
             (bare: {}, churn replay: {}) — determinism invariant violated",
            report.lane_invariant, report.churn_invariant
        );
        std::process::exit(1);
    }
}
