//! # spear-bench — the benchmark harness
//!
//! Regenerates every table and figure of the SPEAR paper's evaluation (§7)
//! plus four ablations, against the simulated substrate documented in
//! DESIGN.md. Binaries:
//!
//! | target | reproduces |
//! |---|---|
//! | `table3` | Table 3 — refinement strategy comparison |
//! | `table4` | Table 4 — fusion gain by type and selectivity |
//! | `figure1` | Figure 1 — fusion gain / accuracy drop across models |
//! | `ablation_cache` | prefix cache on/off for Table 3 |
//! | `ablation_planner` | cost-based refinement planning vs naive |
//! | `ablation_views` | view-guided refinement vs from-scratch prompts |
//! | `ablation_predictive` | predictive vs reactive refinement |
//! | `bench_batch` | concurrent batch-executor throughput sweep (`BENCH_batch.json`) |
//! | `bench_serve` | serving-layer affinity-routing sweep (`BENCH_serve.json`) |
//! | `bench_host` | host fast-path throughput: interned vs flat prefill (`BENCH_host.json`) |
//! | `bench_cluster` | multi-node scale-out sweep with prefix-aware routing (`BENCH_cluster.json`) |
//!
//! All runs are deterministic (seeded corpus, seeded task model, virtual
//! clock); re-running a binary reproduces the numbers bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod batch_bench;
pub mod cli;
pub mod cluster_bench;
pub mod fusion_exp;
pub mod host_bench;
pub mod report;
pub mod serve_bench;
pub mod table3;
pub mod workload;
