//! Host-path throughput harness, emitting `BENCH_host.json`.
//!
//! Measures what the simulator's virtual clock deliberately excludes: the
//! *real* host-side cost of admitting a request — template rendering
//! aside, that is tokenize → block-hash → prefix-cache bookkeeping plus
//! the task-model dispatch. Two modes run the same request stream against
//! separate engines:
//!
//! - **baseline** — flat-text requests with the token interner disabled:
//!   every request re-tokenizes and re-hashes its full prompt (the pre-
//!   fast-path behaviour);
//! - **fast** — segmented requests with the interner on: a warm prompt-
//!   family prefix is tokenized and hashed once per process, so steady-
//!   state per-request work is O(suffix).
//!
//! Responses are asserted byte-identical across modes (the fast path is a
//! pure host optimization), and an optional allocation-counter hook (wired
//! up by the `bench_host` binary's global allocator) reports
//! allocations/request for both modes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use spear_core::condition::{Cond, Operand};
use spear_core::context::Context;
use spear_core::history::RefinementMode;
use spear_core::llm::{GenRequest, GenResponse, LlmClient};
use spear_core::pipeline::Pipeline;
use spear_core::plan::lower;
use spear_core::runtime::{ExecState, Runtime};
use spear_core::template;
use spear_core::EchoLlm;
use spear_llm::{EngineConfig, InternStats, ModelProfile, SimLlm};
use spear_serve::loadgen::family_instruction;

use crate::workload;

/// Snapshot of the process allocator: `(allocations, bytes)` so far.
/// Provided by the `bench_host` binary; `None` reports zeros.
pub type AllocSnapshotFn = fn() -> (u64, u64);

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HostBenchConfig {
    /// Seed stamped into the engine config (the workloads are fixed).
    pub seed: u64,
    /// Distinct requests per workload.
    pub requests: usize,
    /// Prompt families in the serve workload.
    pub families: usize,
    /// Timed passes over the request list (after one warm-up pass).
    pub iters: usize,
}

impl Default for HostBenchConfig {
    fn default() -> Self {
        Self {
            seed: 140,
            requests: 384,
            families: 6,
            iters: 8,
        }
    }
}

/// One mode's measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ModeResult {
    /// Host-side requests per second over the timed passes.
    pub requests_per_sec: f64,
    /// Mean wall time per request in nanoseconds.
    pub ns_per_request: f64,
    /// Heap allocations per request (0 when no counter is installed).
    pub allocs_per_request: f64,
    /// Heap bytes per request (0 when no counter is installed).
    pub bytes_per_request: f64,
}

/// Baseline vs fast comparison on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Distinct requests in the stream.
    pub requests: usize,
    /// Flat text, interner off.
    pub baseline: ModeResult,
    /// Segmented text, interner on.
    pub fast: ModeResult,
    /// `fast.requests_per_sec / baseline.requests_per_sec`.
    pub speedup: f64,
    /// Whether every response matched byte-for-byte across modes.
    pub responses_identical: bool,
    /// Interner counters after the fast run.
    pub intern: InternStats,
}

/// Dispatch microbenchmark result: the same synthetic check-heavy pipeline
/// run by the reference tree walk vs the compiled bytecode VM.
#[derive(Debug, Clone, Serialize)]
pub struct DispatchResult {
    /// Lowered slots in the synthetic plan.
    pub slots: usize,
    /// Operators executed per pass (both spines count identically).
    pub executed_ops: u64,
    /// Timed passes per spine.
    pub passes: usize,
    /// Tree-walk throughput, operators per second.
    pub tree_ops_per_sec: f64,
    /// VM throughput, operators per second.
    pub vm_ops_per_sec: f64,
    /// `vm_ops_per_sec / tree_ops_per_sec`.
    pub speedup: f64,
    /// Whether one run of each spine produced byte-identical traces.
    pub traces_identical: bool,
}

/// The full report serialized to `BENCH_host.json`.
#[derive(Debug, Clone, Serialize)]
pub struct HostBenchReport {
    /// Engine seed.
    pub seed: u64,
    /// Timed passes per mode.
    pub iters: usize,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
    /// Tree-walk-vs-VM dispatch microbenchmark.
    pub dispatch: DispatchResult,
}

/// A prebuilt request in both forms: flat and segmented.
struct PreparedRequest {
    flat: GenRequest,
    segmented: GenRequest,
}

fn prepare(template_text: &str, identity: &str, item_key: &str, item: &str) -> PreparedRequest {
    let params = BTreeMap::new();
    let mut context = Context::new();
    context.set(item_key, item);
    let segments = template::render_segmented(template_text, &params, &context)
        .expect("workload template renders");
    let flat_text =
        template::render(template_text, &params, &context).expect("workload template renders");
    debug_assert_eq!(segments.join(), flat_text);
    PreparedRequest {
        flat: GenRequest::structured(flat_text.clone(), identity),
        segmented: GenRequest::structured(flat_text, identity).with_segments(segments),
    }
}

/// The batch-shaped workload: every request shares the base view V's
/// instruction block and carries its own tweet.
fn batch_requests(n: usize) -> Vec<PreparedRequest> {
    let template_text = format!("{}\nTweet: {{{{ctx:tweet}}}}", workload::view_v_text());
    let moods = ["awful", "great", "boring", "terrible", "lovely", "gloomy"];
    let subjects = ["homework", "commute", "weather", "meeting", "exam", "lunch"];
    (0..n)
        .map(|i| {
            let tweet = format!(
                "what a {} {} today, case {i}",
                moods[i % moods.len()],
                subjects[(i / moods.len()) % subjects.len()]
            );
            prepare(&template_text, "view:v@1#0/v1", "tweet", &tweet)
        })
        .collect()
}

/// The serve-shaped warm-prefix workload: `families` long instructions
/// (the spear-serve load generator's), requests round-robined across them.
fn serve_requests(n: usize, families: usize) -> Vec<PreparedRequest> {
    let templates: Vec<String> = (0..families).map(family_instruction).collect();
    let words = ["ledger", "gasket", "orbit", "thicket", "bramble", "quarry"];
    (0..n)
        .map(|i| {
            let family = i % families;
            let item = format!(
                "case {i}: {} {} {}",
                words[i % words.len()],
                words[(i / 2) % words.len()],
                words[(i / 3) % words.len()]
            );
            prepare(
                &templates[family],
                &format!("view:serve_family_{family}@1#0/v1"),
                "item",
                &item,
            )
        })
        .collect()
}

fn engine(seed: u64, intern_enabled: bool) -> SimLlm {
    SimLlm::with_config(
        ModelProfile::qwen25_7b_instruct(),
        EngineConfig {
            seed,
            intern_enabled,
            ..EngineConfig::default()
        },
    )
}

/// Run one mode: a warm-up pass (collecting responses for the equivalence
/// check), then `iters` timed passes.
fn run_mode(
    engine: &SimLlm,
    requests: &[&GenRequest],
    iters: usize,
    alloc_snapshot: Option<AllocSnapshotFn>,
) -> (ModeResult, Vec<GenResponse>) {
    let responses: Vec<GenResponse> = requests
        .iter()
        .map(|r| engine.generate(r).expect("workload request succeeds"))
        .collect();

    let timed = requests.len() * iters;
    let alloc_before = alloc_snapshot.map_or((0, 0), |f| f());
    let start = Instant::now();
    for _ in 0..iters {
        for r in requests {
            std::hint::black_box(engine.generate(r).expect("workload request succeeds"));
        }
    }
    let elapsed = start.elapsed();
    let alloc_after = alloc_snapshot.map_or((0, 0), |f| f());

    let secs = elapsed.as_secs_f64().max(1e-12);
    (
        ModeResult {
            requests_per_sec: timed as f64 / secs,
            ns_per_request: elapsed.as_nanos() as f64 / timed as f64,
            allocs_per_request: (alloc_after.0 - alloc_before.0) as f64 / timed as f64,
            bytes_per_request: (alloc_after.1 - alloc_before.1) as f64 / timed as f64,
        },
        responses,
    )
}

fn run_workload(
    name: &str,
    prepared: &[PreparedRequest],
    config: &HostBenchConfig,
    alloc_snapshot: Option<AllocSnapshotFn>,
) -> WorkloadResult {
    let flat: Vec<&GenRequest> = prepared.iter().map(|p| &p.flat).collect();
    let segmented: Vec<&GenRequest> = prepared.iter().map(|p| &p.segmented).collect();

    let baseline_engine = engine(config.seed, false);
    let (baseline, baseline_responses) =
        run_mode(&baseline_engine, &flat, config.iters, alloc_snapshot);

    let fast_engine = engine(config.seed, true);
    let (fast, fast_responses) = run_mode(&fast_engine, &segmented, config.iters, alloc_snapshot);

    // The fast path must be observably invisible: compare everything except
    // latency's wall-clock-independent fields — which here means comparing
    // the full responses, since all fields are virtual and deterministic.
    let responses_identical = baseline_responses == fast_responses;

    WorkloadResult {
        name: name.to_string(),
        requests: prepared.len(),
        speedup: fast.requests_per_sec / baseline.requests_per_sec.max(1e-12),
        baseline,
        fast,
        responses_identical,
        intern: fast_engine.interner_stats(),
    }
}

/// A synthetic check-heavy pipeline with no LLM calls that lowers to 64
/// slots: one prompt CREATE followed by 63 empty-branch CHECKs alternating
/// between a context-membership test (true) and a truthiness test on a
/// missing key (false). Both spines do identical condition evaluation and
/// tracing per operator, so the measured difference is the dispatch
/// machinery itself: recursive operator-tree walk with per-step label
/// formatting vs compact bytecode fetch over a constant pool.
fn dispatch_pipeline() -> Pipeline {
    let mut b = Pipeline::builder("dispatch_64").create_text(
        "p0",
        "dispatch probe",
        RefinementMode::Manual,
    );
    for i in 0..63 {
        let cond = if i % 2 == 0 {
            Cond::InContext("seed".to_string())
        } else {
            Cond::Truthy(Operand::Ctx("missing".to_string()))
        };
        b = b.check(cond, |t| t);
    }
    b.build()
}

/// Run the dispatch microbenchmark: `passes` timed passes per spine over
/// the synthetic pipeline, tree walk first, VM second.
#[must_use]
pub fn run_dispatch(passes: usize) -> DispatchResult {
    let pipeline = dispatch_pipeline();
    let plan = lower(&pipeline).expect("synthetic pipeline lowers");
    let rt = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
    let program = spear_core::compile(&plan).expect("synthetic plan compiles");
    let fresh = || {
        let mut state = ExecState::new();
        state.context.set("seed", "1");
        state
    };

    // One run of each spine for the equivalence check and the op count.
    let mut tree_state = fresh();
    let tree_result = rt.execute_tree(&pipeline, &mut tree_state);
    let mut vm_state = fresh();
    let vm_result = rt.execute_program(&program, &mut vm_state);
    let traces_identical = format!(
        "{tree_result:?}|{}",
        tree_state.trace.to_jsonl().expect("trace serializes")
    ) == format!(
        "{vm_result:?}|{}",
        vm_state.trace.to_jsonl().expect("trace serializes")
    );
    let executed_ops = tree_state.step;

    let time = |spine: &dyn Fn(&mut ExecState)| -> f64 {
        // Warm-up pass, then the timed passes.
        spine(&mut fresh());
        let start = Instant::now();
        for _ in 0..passes {
            let mut state = fresh();
            spine(&mut state);
            std::hint::black_box(&state.step);
        }
        let secs = start.elapsed().as_secs_f64().max(1e-12);
        (executed_ops as f64 * passes as f64) / secs
    };
    let tree_ops_per_sec = time(&|state| {
        let _ = rt.execute_tree(&pipeline, state);
    });
    let vm_ops_per_sec = time(&|state| {
        let _ = rt.execute_program(&program, state);
    });

    DispatchResult {
        slots: plan.ops.len(),
        executed_ops,
        passes,
        tree_ops_per_sec,
        vm_ops_per_sec,
        speedup: vm_ops_per_sec / tree_ops_per_sec.max(1e-12),
        traces_identical,
    }
}

/// Run the full harness.
#[must_use]
pub fn run(config: &HostBenchConfig, alloc_snapshot: Option<AllocSnapshotFn>) -> HostBenchReport {
    let batch = batch_requests(config.requests);
    let serve = serve_requests(config.requests, config.families);
    HostBenchReport {
        seed: config.seed,
        iters: config.iters,
        workloads: vec![
            run_workload("batch_view_v", &batch, config, alloc_snapshot),
            run_workload("serve_warm_prefix", &serve, config, alloc_snapshot),
        ],
        // 250 dispatch passes per timed pass of the main workloads keeps
        // the microbenchmark's sample count (~1M ops) proportionate.
        dispatch: run_dispatch(config.iters * 250),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_and_fast_path_interns() {
        let config = HostBenchConfig {
            requests: 24,
            families: 3,
            iters: 1,
            ..HostBenchConfig::default()
        };
        let report = run(&config, None);
        assert_eq!(report.workloads.len(), 2);
        for w in &report.workloads {
            assert!(w.responses_identical, "{} diverged", w.name);
            assert!(w.intern.hits > 0, "{} never resumed a chain", w.name);
            assert!(w.baseline.requests_per_sec > 0.0);
        }
        assert!(report.dispatch.traces_identical);
        assert!(report.dispatch.tree_ops_per_sec > 0.0);
        assert!(report.dispatch.vm_ops_per_sec > 0.0);
    }

    #[test]
    fn dispatch_plan_is_64_slots_and_spines_agree() {
        let result = run_dispatch(2);
        assert_eq!(result.slots, 64, "synthetic plan must stay 64 slots");
        assert!(
            result.traces_identical,
            "tree walk and VM diverged on the dispatch plan"
        );
        assert!(result.executed_ops >= 64, "every slot executes");
    }
}
