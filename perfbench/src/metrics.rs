//! The metric catalogue (names, units, better-direction) and the mapping
//! from a run's measurements to metric values. `BENCHMARK.json` lists the
//! same names; a test keeps the two in step.

use std::collections::BTreeMap;

use spear_cluster::ClusterReport;

use crate::bench::{self, RunResult};
use crate::stats;
use crate::workload::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The marker printed beside the metric.
    pub fn label(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics (`--trace 0`), reported on every workload.
pub const END_TO_END: [(&str, &str, Better); 8] = [
    ("virt_e2e_p50_ms", "ms", Lower),
    ("virt_e2e_p90_ms", "ms", Lower),
    ("virt_e2e_p99_ms", "ms", Lower),
    ("virt_throughput_rps", "1/s", Higher),
    ("slo_attainment_pct", "%", Higher),
    ("host_rps", "1/s", Higher),
    ("setup_s", "s", Lower),
    ("peak_heap_mb", "MB", Lower),
];

/// Per-layer metrics (`--trace 1`), reported on every workload (0 where a
/// workload bypasses the layer).
pub const PER_LAYER: [(&str, &str, Better); 56] = [
    ("llm.calls", "count", Lower),
    ("llm.busy_ms", "ms", Lower),
    ("llm.ns_per_call", "ns", Lower),
    ("llm.prefix_hit_pct", "%", Higher),
    ("llm.cached_prefill_tokens", "count", Higher),
    ("llm.uncached_prefill_tokens", "count", Lower),
    ("llm.decode_tokens", "count", Lower),
    ("llm.interner_hit_pct", "%", Higher),
    ("llm.memo_reuse_pct", "%", Higher),
    ("llm.memo_inserts", "count", Lower),
    ("core.exec_ms", "ms", Lower),
    ("core.exec_ns_per_req", "ns", Lower),
    ("core.refine_branch_pct", "%", Lower),
    ("core.compile_ms", "ms", Lower),
    ("core.verify_ms", "ms", Lower),
    ("core.allocs_per_req", "count", Lower),
    ("serve.run_ms", "ms", Lower),
    ("serve.sched_ms", "ms", Lower),
    ("serve.queue_wait_p50_ms", "ms", Lower),
    ("serve.queue_wait_p99_ms", "ms", Lower),
    ("serve.service_p50_ms", "ms", Lower),
    ("serve.rejected", "count", Lower),
    ("serve.deadline_exceeded", "count", Lower),
    ("serve.program_cache_hit_pct", "%", Higher),
    ("serve.verify_memo_hits", "count", Higher),
    ("virt.interactive.queue_wait_ms", "ms", Lower),
    ("virt.interactive.cached_prefill_ms", "ms", Lower),
    ("virt.interactive.uncached_prefill_ms", "ms", Lower),
    ("virt.interactive.decode_ms", "ms", Lower),
    ("virt.interactive.overhead_ms", "ms", Lower),
    ("virt.interactive.residual_ms", "ms", Lower),
    ("virt.batch.queue_wait_ms", "ms", Lower),
    ("virt.batch.cached_prefill_ms", "ms", Lower),
    ("virt.batch.uncached_prefill_ms", "ms", Lower),
    ("virt.batch.decode_ms", "ms", Lower),
    ("virt.batch.overhead_ms", "ms", Lower),
    ("virt.batch.residual_ms", "ms", Lower),
    ("kv.host_ms", "ms", Lower),
    ("kv.steps", "count", Lower),
    ("kv.ns_per_step", "ns", Lower),
    ("kv.preempted", "count", Lower),
    ("kv.preempt_per_req", "count", Lower),
    ("kv.evicted_blocks", "count", Lower),
    ("kv.alloc_failures", "count", Lower),
    ("kv.peak_live_blocks", "count", Lower),
    ("kv.pool_reuse_pct", "%", Higher),
    ("cluster.route_ns_per_req", "ns", Lower),
    ("cluster.fleet_hit_pct", "%", Higher),
    ("cluster.imbalance", "x", Lower),
    ("cluster.straggler_ratio", "x", Lower),
    ("cluster.handoffs", "count", Lower),
    ("cluster.replicated_families", "count", Lower),
    ("trace.layer_share_pct", "%", Higher),
    ("trace_overhead_pct", "%", Lower),
    ("serve.host_rps", "1/s", Higher),
    ("serve.traced_host_rps", "1/s", Higher),
];

fn named<const N: usize>(values: [(&str, f64); N]) -> BTreeMap<String, f64> {
    values
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The yardstick job's CPU time at the reference machine speed, s. Host
/// figures are reported as if the machine ran at that speed: each is
/// scaled by the yardstick's median CPU time in the same run, which moves
/// with the machine and not with the program.
pub const YARDSTICK_REFERENCE_S: f64 = 0.030;

/// How much slower than the reference the machine ran during `result`.
pub fn slowdown(result: &RunResult) -> f64 {
    result.yardstick_s / YARDSTICK_REFERENCE_S
}

/// End-to-end metric values of a run.
pub fn end_to_end(result: &RunResult) -> BTreeMap<String, f64> {
    let v = &result.virt;
    named([
        ("virt_e2e_p50_ms", v.e2e_ms(0.50)),
        ("virt_e2e_p90_ms", v.e2e_ms(0.90)),
        ("virt_e2e_p99_ms", v.e2e_ms(0.99)),
        (
            "virt_throughput_rps",
            ratio(v.completed as f64, v.makespan_us as f64 / 1e6),
        ),
        ("slo_attainment_pct", stats::attainment_pct(&v.slo_rows)),
        ("host_rps", bench::rps(&result.host_rps) * slowdown(result)),
        ("setup_s", result.setup_s / slowdown(result)),
        ("peak_heap_mb", result.peak_heap_bytes / (1024.0 * 1024.0)),
    ])
}

/// Max-over-mean of `values` (1.0 when empty).
fn max_over_mean(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(0.0, f64::max);
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

fn fleet_means(clusters: &[ClusterReport], f: impl Fn(&ClusterReport) -> f64) -> f64 {
    ratio(clusters.iter().map(f).sum(), clusters.len() as f64)
}

/// Per-layer metric values of a traced run.
pub fn per_layer(workload: Workload, result: &RunResult) -> BTreeMap<String, f64> {
    let l = &result.layers;
    let v = &result.virt;
    let ms = |ns: u64| ns as f64 / 1e6;
    let kv_host_ns = if workload == Workload::KvBurst {
        l.serve_run_ns.saturating_sub(l.unpressured_run_ns)
    } else {
        0
    };
    let core_ns = l.replay_ns.saturating_sub(l.replay_llm_ns);
    let reports = &result.reports;
    let sum = |f: &dyn Fn(&spear_serve::ServeReport) -> u64| reports.iter().map(f).sum::<u64>();
    let kv_steps = sum(&|r| r.kv.steps);
    let host = bench::rps(&result.host_rps);
    let traced = bench::rps(&result.traced_rps);
    let mut m = named([
        ("llm.calls", l.llm_calls as f64),
        ("llm.busy_ms", ms(l.llm_busy_ns)),
        (
            "llm.ns_per_call",
            ratio(l.llm_busy_ns as f64, l.llm_calls as f64),
        ),
        (
            "llm.prefix_hit_pct",
            100.0 * ratio(v.cached_tokens as f64, v.prompt_tokens as f64),
        ),
        ("llm.cached_prefill_tokens", v.cached_tokens as f64),
        (
            "llm.uncached_prefill_tokens",
            (v.prompt_tokens - v.cached_tokens) as f64,
        ),
        ("llm.decode_tokens", v.completion_tokens as f64),
        (
            "llm.interner_hit_pct",
            100.0
                * ratio(
                    l.engine.intern_hits as f64,
                    (l.engine.intern_hits + l.engine.intern_misses) as f64,
                ),
        ),
        (
            "llm.memo_reuse_pct",
            100.0
                * ratio(
                    (l.engine.memo_hits + l.engine.memo_coalesced) as f64,
                    l.llm_calls as f64,
                ),
        ),
        ("llm.memo_inserts", l.engine.memo_inserts as f64),
        ("core.exec_ms", ms(core_ns)),
        (
            "core.exec_ns_per_req",
            ratio(core_ns as f64, l.replayed as f64),
        ),
        (
            "core.refine_branch_pct",
            100.0 * ratio(v.refined as f64, v.completed as f64),
        ),
        ("core.compile_ms", ms(l.compile_ns)),
        ("core.verify_ms", ms(l.verify_ns)),
        (
            "core.allocs_per_req",
            ratio(l.replay_allocs as f64, l.replayed as f64),
        ),
        ("serve.run_ms", ms(l.serve_run_ns)),
        (
            // Scheduler and admission self time, by subtraction.
            "serve.sched_ms",
            (l.serve_run_ns as f64 - l.replay_ns as f64 - kv_host_ns as f64 - l.route_ns as f64)
                / 1e6,
        ),
        (
            "serve.queue_wait_p50_ms",
            stats::quantile(&v.queue_wait, 0.5).unwrap_or(0) as f64 / 1e3,
        ),
        (
            "serve.queue_wait_p99_ms",
            stats::quantile(&v.queue_wait, 0.99).unwrap_or(0) as f64 / 1e3,
        ),
        (
            "serve.service_p50_ms",
            stats::quantile(&v.service, 0.5).unwrap_or(0) as f64 / 1e3,
        ),
        (
            "serve.rejected",
            sum(&|r| r.interactive.rejected + r.batch.rejected) as f64,
        ),
        (
            "serve.deadline_exceeded",
            sum(&|r| r.interactive.deadline_exceeded + r.batch.deadline_exceeded) as f64,
        ),
        (
            "serve.program_cache_hit_pct",
            100.0
                * ratio(
                    sum(&|r| r.compile.cache_hits) as f64,
                    sum(&|r| r.compile.cache_hits + r.compile.compiled) as f64,
                ),
        ),
        (
            "serve.verify_memo_hits",
            sum(&|r| r.compile.verify_memo_hits) as f64,
        ),
        ("kv.host_ms", ms(kv_host_ns)),
        ("kv.steps", kv_steps as f64),
        (
            "kv.ns_per_step",
            ratio(kv_host_ns as f64, l.split_kv_steps as f64),
        ),
        ("kv.preempted", sum(&|r| r.kv.preempted) as f64),
        (
            "kv.preempt_per_req",
            ratio(sum(&|r| r.kv.preempted) as f64, result.attempted as f64),
        ),
        ("kv.evicted_blocks", sum(&|r| r.kv.evicted_blocks) as f64),
        ("kv.alloc_failures", sum(&|r| r.kv.alloc_failures) as f64),
        (
            "kv.peak_live_blocks",
            reports
                .iter()
                .map(|r| r.kv.peak_live_blocks)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "kv.pool_reuse_pct",
            100.0
                * ratio(
                    sum(&|r| r.kv.reused_blocks) as f64,
                    sum(&|r| r.kv.requested_blocks) as f64,
                ),
        ),
        (
            "cluster.route_ns_per_req",
            ratio(l.route_ns as f64, l.routed as f64),
        ),
        (
            "cluster.fleet_hit_pct",
            100.0
                * ratio(
                    result
                        .clusters
                        .iter()
                        .map(|c| c.fleet_cached_tokens)
                        .sum::<u64>() as f64,
                    result
                        .clusters
                        .iter()
                        .map(|c| c.fleet_prompt_tokens)
                        .sum::<u64>() as f64,
                ),
        ),
        (
            "cluster.imbalance",
            fleet_means(&result.clusters, |c| {
                let assigned: Vec<f64> = c
                    .nodes
                    .iter()
                    .filter(|n| n.assigned > 0)
                    .map(|n| n.assigned as f64)
                    .collect();
                max_over_mean(&assigned)
            }),
        ),
        (
            "cluster.straggler_ratio",
            fleet_means(&result.clusters, |c| {
                let makespans: Vec<f64> = c
                    .nodes
                    .iter()
                    .filter(|n| n.assigned > 0)
                    .map(|n| n.makespan_us as f64)
                    .collect();
                max_over_mean(&makespans)
            }),
        ),
        (
            "cluster.handoffs",
            result
                .clusters
                .iter()
                .map(|c| c.router.handoffs)
                .sum::<u64>() as f64,
        ),
        (
            "cluster.replicated_families",
            result
                .clusters
                .iter()
                .map(|c| c.router.replicated_families)
                .sum::<u64>() as f64,
        ),
        (
            "trace.layer_share_pct",
            100.0
                * ratio(
                    (l.llm_busy_ns + core_ns + kv_host_ns + l.route_ns) as f64,
                    l.serve_run_ns as f64,
                ),
        ),
        ("trace_overhead_pct", 100.0 * ratio(host - traced, host)),
        ("serve.host_rps", host),
        ("serve.traced_host_rps", traced),
    ]);
    for (class, a) in ["interactive", "batch"].iter().zip(&v.attribution) {
        for (part, us) in [
            ("queue_wait_ms", a.queue_wait),
            ("cached_prefill_ms", a.cached_prefill),
            ("uncached_prefill_ms", a.uncached_prefill),
            ("decode_ms", a.decode),
            ("overhead_ms", a.overhead),
            ("residual_ms", a.residual),
        ] {
            m.insert(format!("virt.{class}.{part}"), us as f64 / 1e3);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue and these workloads.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = doc[key]
                .as_array()
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().expect("a string field").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.label().to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the catalogue");
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("a workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("a name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
