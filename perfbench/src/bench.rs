//! One benchmark run: set up, check, measure, attribute.
//!
//! A run generates `shape.instances` independent instances from the seed
//! and pools their outcome rows, so a run's virtual quantiles rest on
//! thousands of requests. Passes over an instance:
//!
//! - **check pass** (untimed; the first `shape.checked` instances): 1 lane
//!   with the `llm` probe in front of the engine (`fleet_churn`:
//!   `Cluster::run_sequential`). Its fingerprint must equal the 2-lane
//!   (fleet: threaded) fingerprint, and every GEN response it saw must match
//!   the tree-walk oracle. It also holds the heap-counting window: at one
//!   lane the allocation sequence does not depend on thread timing. On
//!   traced runs it doubles as the layer-split pass, since a 1-lane pass
//!   runs the layers one after the other, like the sequential core replay
//!   subtracted from it.
//! - **reference pass**: 2 lanes (fleet: `Cluster::run`), no wrapper. Its
//!   outcome rows give the virtual metrics, and it is the first host-timing
//!   sample of its instance.
//! - **timed passes**: more reference passes, cycling over the instances,
//!   until the run's `--seconds` are used up.
//!
//! Host cost is process CPU time, not wall time: on a shared virtual
//! machine the wall clock also counts the time other tenants hold the CPU
//! (steal), which made wall-clock passes of one instance differ by 2x.
//! After every timed pass the run also repeats set-up and times a
//! program-independent yardstick job, so both spread over the run like the
//! passes do.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spear_cluster::{ClusterReport, Router};
use spear_core::llm::{LlmClient, ReusePolicy};
use spear_core::runtime::Runtime;
use spear_core::vm;
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::{Priority, ServeNode, ServeOutcome, ServeReport, ServeStatus};

use crate::alloc;
use crate::cpu;
use crate::probe::{Call, ProbeLlm, Response};
use crate::stats::{self, Fate};
use crate::workload::{instance_seed, Instance, Workload};

/// Minimum set-up repetitions per run. Set-up runs once before anything
/// else and once more after every timed pass, so its repetitions spread
/// over the run like the passes do; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Minimum host-timing samples per run, whatever `--seconds` says.
const MIN_TIMED: usize = 3;

/// Rate multiples of the `virt_max_rate_rps` ladder (`k / 4` of the base
/// rate, `k = 1..=8`), searched by bisection.
const LADDER: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0];

/// Instances pooled at each ladder rung (the first ones of the run).
const LADDER_INSTANCES: usize = 2;

fn profile() -> ModelProfile {
    ModelProfile::qwen25_7b_instruct()
}

/// What one pass over an instance produced.
pub struct Pass {
    /// One outcome per request, sorted by id.
    pub outcomes: Vec<ServeOutcome>,
    /// Serving node per outcome (all 0 off the fleet).
    pub nodes: Vec<u64>,
    /// Order-canonical fingerprint over statuses and trace digests.
    pub fingerprint: u64,
    /// When the serving call started.
    pub started: Instant,
    /// Host wall time of `ServeNode::run` / `Cluster::run`.
    pub wall: Duration,
    /// Process CPU time over the same call.
    pub cpu: Duration,
    /// Virtual makespan, µs.
    pub makespan_us: u64,
    /// Per-node reports (one off the fleet).
    pub reports: Vec<ServeReport>,
    /// The fleet report (`fleet_churn` only).
    pub cluster: Option<ClusterReport>,
    /// The probe, when the pass ran with one.
    pub probe: Option<Arc<ProbeLlm>>,
    /// Engine memo and interner counters over the pass (probe passes).
    pub engine: EngineDelta,
}

/// Engine counters accumulated over one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineDelta {
    /// Chain-interner hits.
    pub intern_hits: u64,
    /// Chain-interner misses.
    pub intern_misses: u64,
    /// Memo hits.
    pub memo_hits: u64,
    /// Single-flight followers that adopted a leader's result.
    pub memo_coalesced: u64,
    /// Memo insertions.
    pub memo_inserts: u64,
}

impl EngineDelta {
    fn between(
        engine: &SimLlm,
        intern: spear_llm::InternStats,
        memo: spear_llm::MemoStats,
    ) -> Self {
        let (i, m) = (engine.interner_stats(), engine.reuse_stats());
        Self {
            intern_hits: i.hits - intern.hits,
            intern_misses: i.misses - intern.misses,
            memo_hits: m.hits - memo.hits,
            memo_coalesced: m.coalesced_waits - memo.coalesced_waits,
            memo_inserts: m.insertions - memo.insertions,
        }
    }

    fn add(&mut self, other: Self) {
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.memo_hits += other.memo_hits;
        self.memo_coalesced += other.memo_coalesced;
        self.memo_inserts += other.memo_inserts;
    }
}

/// An upper bound on the GEN calls serving `instance` makes, so the probe
/// can reserve its log before a heap-counting window opens.
fn expected_calls(workload: Workload, instance: &Instance) -> usize {
    let shape = workload.shape();
    instance.rows.len() * (shape.gen_calls + usize::from(shape.refine_below.is_some()))
}

fn engine_for(instance: &Instance, node: u64) -> Arc<SimLlm> {
    let mut config = instance.engine_config();
    config.seed = config.seed.wrapping_add(node);
    Arc::new(SimLlm::with_config(profile(), config))
}

fn runtime_for(instance: &Instance, llm: Arc<dyn LlmClient>) -> Runtime {
    Runtime::builder()
        .llm(llm)
        .views(instance.views.clone())
        .build()
}

/// How to serve one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassMode {
    /// Worker lanes per node.
    pub lanes: usize,
    /// Keep the workload's KV pool (`false` serves unbounded).
    pub pressure: bool,
    /// Put the `llm` probe in front of the engine (node workloads only).
    pub probe: Option<Instant>,
    /// Count heap growth over the serving call.
    pub heap: bool,
}

/// Serve `instance` once at `rate_x` times its base rate.
pub fn serve(
    workload: Workload,
    instance: &Instance,
    rate_x: f64,
    mode: PassMode,
) -> (Pass, alloc::HeapUsage) {
    if workload == Workload::FleetChurn {
        return fleet(workload, instance, rate_x, mode);
    }
    let engine = engine_for(instance, 0);
    let probe = mode.probe.map(|epoch| {
        Arc::new(ProbeLlm::new(
            Arc::clone(&engine),
            epoch,
            expected_calls(workload, instance),
        ))
    });
    let llm: Arc<dyn LlmClient> = match &probe {
        Some(p) => Arc::clone(p) as Arc<dyn LlmClient>,
        None => Arc::clone(&engine) as Arc<dyn LlmClient>,
    };
    let runtime = runtime_for(instance, llm);
    let mut config = workload.serve_config(mode.lanes);
    if !mode.pressure {
        config.pressure = None;
    }
    let node = ServeNode::new(config);
    let requests = instance.requests(rate_x);
    let (intern, memo) = (engine.interner_stats(), engine.reuse_stats());
    if mode.heap {
        alloc::start();
    }
    let cpu_before = cpu::process_cpu();
    let started = Instant::now();
    let run = node.run(&runtime, Some(&engine), requests);
    let wall = started.elapsed();
    let cpu = cpu::process_cpu() - cpu_before;
    let heap = if mode.heap {
        alloc::stop()
    } else {
        alloc::HeapUsage::default()
    };
    let engine_delta = EngineDelta::between(&engine, intern, memo);
    let n = run.outcomes.len();
    (
        Pass {
            fingerprint: run.report.trace_fingerprint,
            makespan_us: run.report.makespan_us,
            outcomes: run.outcomes,
            nodes: vec![0; n],
            started,
            wall,
            cpu,
            reports: vec![run.report],
            cluster: None,
            probe,
            engine: engine_delta,
        },
        heap,
    )
}

fn fleet(
    workload: Workload,
    instance: &Instance,
    rate_x: f64,
    mode: PassMode,
) -> (Pass, alloc::HeapUsage) {
    let cluster = spear_cluster::Cluster::new(workload.cluster_config(instance, rate_x));
    let requests = instance.cluster_workload(rate_x);
    if mode.heap {
        alloc::start();
    }
    let cpu_before = cpu::process_cpu();
    let started = Instant::now();
    // The 1-lane mode is the sequential reference implementation.
    let run = if mode.lanes == 1 {
        cluster.run_sequential(requests)
    } else {
        cluster.run(requests)
    };
    let wall = started.elapsed();
    let cpu = cpu::process_cpu() - cpu_before;
    let heap = if mode.heap {
        alloc::stop()
    } else {
        alloc::HeapUsage::default()
    };
    let (nodes, outcomes): (Vec<u64>, Vec<ServeOutcome>) = run.outcomes.into_iter().unzip();
    (
        Pass {
            fingerprint: run.report.trace_fingerprint,
            makespan_us: run.report.makespan_us,
            outcomes,
            nodes,
            started,
            wall,
            cpu,
            reports: run.report.nodes.iter().map(|n| n.report.clone()).collect(),
            cluster: Some(run.report),
            probe: None,
            engine: EngineDelta::default(),
        },
        heap,
    )
}

/// The tree-walk oracle's view of one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleRow {
    /// GEN calls the pipeline made.
    pub gens: u64,
    /// CHECKs whose condition held (the REF branch ran).
    pub refined: bool,
    /// Prompt tokens across the GENs (cache-independent).
    pub prompt_tokens: u64,
    /// Completion tokens across the GENs.
    pub completion_tokens: u64,
}

/// Run every request of `instance` through `Runtime::execute_tree` on a
/// fresh engine per serving node, in id order. Returns the per-request rows
/// and every GEN response (prompt, text, confidence) the oracle produced.
pub fn oracle(
    instance: &Instance,
    nodes: &[u64],
) -> Result<(Vec<OracleRow>, Vec<Response>), String> {
    let epoch = Instant::now();
    let mut engines: BTreeMap<u64, (Arc<ProbeLlm>, Runtime)> = BTreeMap::new();
    let mut rows = Vec::with_capacity(instance.rows.len());
    for (row, &node) in instance.rows.iter().zip(nodes) {
        let (_, runtime) = engines.entry(node).or_insert_with(|| {
            let probe = Arc::new(ProbeLlm::new(engine_for(instance, node), epoch, 0));
            let runtime = runtime_for(instance, Arc::clone(&probe) as Arc<dyn LlmClient>);
            (probe, runtime)
        });
        let mut state = instance.state(row);
        let report = runtime
            .execute_tree(&instance.pipelines[row.family], &mut state)
            .map_err(|e| format!("oracle failed on request {}: {e}", row.id))?;
        rows.push(OracleRow {
            gens: report.gens,
            refined: report.checks_taken > 0,
            prompt_tokens: report.usage.prompt_tokens,
            completion_tokens: report.usage.completion_tokens,
        });
    }
    let mut responses: Vec<Response> = engines
        .values()
        .flat_map(|(probe, _)| probe.calls())
        .map(|c| c.response_key())
        .collect();
    responses.sort_unstable();
    Ok((rows, responses))
}

/// Compare a served pass against the oracle, request by request.
fn check_against_oracle(pass: &Pass, oracle: &[OracleRow]) -> Result<(), String> {
    if pass.outcomes.len() != oracle.len() {
        return Err(format!(
            "{} outcomes for {} requests",
            pass.outcomes.len(),
            oracle.len()
        ));
    }
    for (outcome, want) in pass.outcomes.iter().zip(oracle) {
        if outcome.status != ServeStatus::Completed {
            continue; // counted as failed, not as a mismatch
        }
        let got = (outcome.usage.prompt_tokens, outcome.usage.completion_tokens);
        if got != (want.prompt_tokens, want.completion_tokens) {
            return Err(format!(
                "request {}: served (prompt, completion) tokens {got:?}, oracle {:?}",
                outcome.id,
                (want.prompt_tokens, want.completion_tokens)
            ));
        }
    }
    Ok(())
}

/// Virtual-clock attribution of one class, in integer µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// Summed end-to-end latency.
    pub e2e: i64,
    /// Queue wait.
    pub queue_wait: i64,
    /// Prefill of prompt tokens served from the prefix cache.
    pub cached_prefill: i64,
    /// Prefill of the other prompt tokens.
    pub uncached_prefill: i64,
    /// Decode.
    pub decode: i64,
    /// Fixed per-GEN request overhead.
    pub overhead: i64,
    /// What the cost model does not explain (preemption recompute and
    /// batching effects under a KV pool; 0 when unconstrained).
    pub residual: i64,
}

impl Attribution {
    fn add_request(
        &mut self,
        e2e: u64,
        queue: u64,
        usage: &spear_core::TokenUsage,
        gens: u64,
    ) -> Result<i64, String> {
        let p = profile();
        let coefficient = |c: f64| -> Result<i64, String> {
            (c.fract() == 0.0)
                .then_some(c as i64)
                .ok_or_else(|| format!("cost coefficient {c} is not whole µs"))
        };
        let cached = usage.cached_tokens as i64 * coefficient(p.cached_prefill_us_per_token)?;
        let uncached = (usage.prompt_tokens - usage.cached_tokens) as i64
            * coefficient(p.prefill_us_per_token)?;
        let decode = usage.completion_tokens as i64 * coefficient(p.decode_us_per_token)?;
        let overhead = gens as i64 * coefficient(p.request_overhead_us)?;
        let residual = e2e as i64 - queue as i64 - cached - uncached - decode - overhead;
        self.e2e += e2e as i64;
        self.queue_wait += queue as i64;
        self.cached_prefill += cached;
        self.uncached_prefill += uncached;
        self.decode += decode;
        self.overhead += overhead;
        self.residual += residual;
        Ok(residual)
    }

    /// The parts sum to the summed end-to-end latency, exactly.
    fn identity_holds(&self) -> bool {
        self.queue_wait
            + self.cached_prefill
            + self.uncached_prefill
            + self.decode
            + self.overhead
            + self.residual
            == self.e2e
    }
}

/// Pooled virtual-clock results over a run's reference passes.
#[derive(Debug, Default)]
pub struct Virtual {
    /// Sorted end-to-end latencies of completed requests, µs.
    pub e2e: Vec<u64>,
    /// Sorted interactive end-to-end latencies, µs.
    pub interactive_e2e: Vec<u64>,
    /// Sorted queue waits of completed requests, µs.
    pub queue_wait: Vec<u64>,
    /// Sorted service times of completed requests, µs.
    pub service: Vec<u64>,
    /// `(fate, limit)` per request sent.
    pub slo_rows: Vec<(Fate, u64)>,
    /// Requests completed.
    pub completed: u64,
    /// Summed virtual makespans, µs.
    pub makespan_us: u64,
    /// Per class: `[interactive, batch]`.
    pub attribution: [Attribution; 2],
    /// Summed token counts of completed requests.
    pub prompt_tokens: u64,
    /// Cached prompt tokens.
    pub cached_tokens: u64,
    /// Completion tokens.
    pub completion_tokens: u64,
    /// Requests whose REF branch ran (per the oracle).
    pub refined: u64,
    /// Longest drain after the last arrival over the pooled passes, µs.
    pub max_drain_us: u64,
}

impl Virtual {
    fn add(
        &mut self,
        workload: Workload,
        instance: &Instance,
        rate_x: f64,
        pass: &Pass,
        oracle: &[OracleRow],
    ) -> Result<(), String> {
        let shape = workload.shape();
        // Without a KV pool, service is exactly the engine's cost model.
        let exact = workload.serve_config(1).pressure.is_none();
        let requests = instance.requests(rate_x);
        let last_arrival = requests.last().map_or(0, |r| r.arrival_us);
        self.max_drain_us = self
            .max_drain_us
            .max(pass.makespan_us.saturating_sub(last_arrival));
        self.makespan_us += pass.makespan_us;
        for ((outcome, request), want) in pass.outcomes.iter().zip(&requests).zip(oracle) {
            let limit = shape.limit_us(request.priority);
            if outcome.status != ServeStatus::Completed {
                self.slo_rows.push((Fate::Error, limit));
                continue;
            }
            let e2e = outcome
                .finish_us
                .checked_sub(request.arrival_us)
                .ok_or_else(|| format!("request {} finished before it arrived", outcome.id))?;
            self.slo_rows.push((Fate::Done(e2e), limit));
            self.completed += 1;
            self.e2e.push(e2e);
            if request.priority == Priority::Interactive {
                self.interactive_e2e.push(e2e);
            }
            self.queue_wait.push(outcome.queue_wait_us);
            self.service.push(outcome.service_us);
            self.prompt_tokens += outcome.usage.prompt_tokens;
            self.cached_tokens += outcome.usage.cached_tokens;
            self.completion_tokens += outcome.usage.completion_tokens;
            self.refined += u64::from(want.refined);
            let class = usize::from(request.priority == Priority::Batch);
            let residual = self.attribution[class].add_request(
                e2e,
                outcome.queue_wait_us,
                &outcome.usage,
                want.gens,
            )?;
            if residual != 0 && exact {
                return Err(format!(
                    "request {}: {residual} µs of end-to-end latency unexplained without a KV pool",
                    outcome.id
                ));
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        for v in [
            &mut self.e2e,
            &mut self.interactive_e2e,
            &mut self.queue_wait,
            &mut self.service,
        ] {
            v.sort_unstable();
        }
        for (class, a) in ["interactive", "batch"].iter().zip(&self.attribution) {
            if !a.identity_holds() {
                return Err(format!(
                    "{class}: virtual attribution parts do not sum to e2e"
                ));
            }
        }
        Ok(())
    }

    /// Nearest-rank quantile of completed requests' e2e, in ms.
    pub fn e2e_ms(&self, q: f64) -> f64 {
        stats::quantile(&self.e2e, q).unwrap_or(0) as f64 / 1e3
    }
}

/// Per-layer host numbers of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Wall of the layer-split passes (1 lane / sequential fleet), ns.
    pub serve_run_ns: u64,
    /// The same stream without the KV pool (`kv_burst`), ns.
    pub unpressured_run_ns: u64,
    /// KV simulator steps of the split passes.
    pub split_kv_steps: u64,
    /// Engine calls on the split passes (fleet: on the replay).
    pub llm_calls: u64,
    /// Time inside the engine on the split passes (fleet: replay), ns.
    pub llm_busy_ns: u64,
    /// Engine counters over the split passes (fleet: replay).
    pub engine: EngineDelta,
    /// Wall of the core replay, ns.
    pub replay_ns: u64,
    /// Time inside the engine during the replay, ns.
    pub replay_llm_ns: u64,
    /// Requests replayed.
    pub replayed: u64,
    /// Allocations during the replay outside engine calls.
    pub replay_allocs: u64,
    /// `vm::compile` + `vm::optimize` over distinct plans, ns.
    pub compile_ns: u64,
    /// `Runtime::verify_lowered` over distinct plans, ns.
    pub verify_ns: u64,
    /// `Router::route` replay, ns.
    pub route_ns: u64,
    /// Requests routed in the replay.
    pub routed: u64,
    /// Spans recorded (written when the run ends).
    pub spans: Vec<String>,
}

/// Replay every request's plan through `Runtime::execute_lowered` on a
/// fresh engine per node, outside the scheduler, in arrival order.
fn core_replay(
    workload: Workload,
    instance: &Instance,
    nodes: &[u64],
    layers: &mut Layers,
) -> Result<(), String> {
    let epoch = Instant::now();
    let mut engines: BTreeMap<u64, (Arc<ProbeLlm>, Arc<SimLlm>, Runtime)> = BTreeMap::new();
    for &node in nodes {
        engines.entry(node).or_insert_with(|| {
            let engine = engine_for(instance, node);
            let capacity = expected_calls(workload, instance);
            let probe = Arc::new(ProbeLlm::new(Arc::clone(&engine), epoch, capacity));
            let runtime = runtime_for(instance, Arc::clone(&probe) as Arc<dyn LlmClient>);
            (probe, engine, runtime)
        });
    }
    let before: BTreeMap<u64, _> = engines
        .iter()
        .map(|(&n, (_, e, _))| (n, (e.interner_stats(), e.reuse_stats())))
        .collect();
    let mut states: Vec<_> = instance
        .rows
        .iter()
        .map(|row| {
            let mut state = instance.state(row);
            state.reuse = ReusePolicy::Exact;
            state
        })
        .collect();
    alloc::start();
    let started = Instant::now();
    for ((row, state), node) in instance.rows.iter().zip(&mut states).zip(nodes) {
        let (_, _, runtime) = &engines[node];
        runtime
            .execute_lowered(&instance.plans[row.family], state)
            .map_err(|e| format!("core replay failed on request {}: {e}", row.id))?;
    }
    let wall = started.elapsed();
    let heap = alloc::stop();
    let calls: Vec<Call> = engines.values().flat_map(|(p, _, _)| p.calls()).collect();
    let inside: u64 = calls.iter().map(|c| c.allocs).sum();
    layers.replay_ns += wall.as_nanos() as u64;
    layers.replay_llm_ns += calls.iter().map(|c| c.end_ns - c.start_ns).sum::<u64>();
    layers.replayed += instance.rows.len() as u64;
    layers.replay_allocs += heap.allocs.saturating_sub(inside);
    // The fleet's engines live inside `Cluster::run`; its `llm` numbers
    // come from this replay instead.
    if workload == Workload::FleetChurn {
        layers.llm_calls += calls.len() as u64;
        layers.llm_busy_ns += calls.iter().map(|c| c.end_ns - c.start_ns).sum::<u64>();
        for (node, (_, engine, _)) in &engines {
            let (intern, memo) = before[node];
            layers
                .engine
                .add(EngineDelta::between(engine, intern, memo));
        }
    }
    Ok(())
}

/// Time `vm::compile` + `vm::optimize` and `Runtime::verify_lowered` once
/// per distinct plan.
fn time_compile(instance: &Instance, layers: &mut Layers) -> Result<(), String> {
    let runtime = runtime_for(instance, engine_for(instance, 0) as Arc<dyn LlmClient>);
    for plan in &instance.plans {
        let started = Instant::now();
        let program = vm::compile(plan).map_err(|e| format!("compile {}: {e}", plan.name))?;
        std::hint::black_box(vm::optimize(&program));
        layers.compile_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let diagnostics = runtime.verify_lowered(plan);
        layers.verify_ns += started.elapsed().as_nanos() as u64;
        if diagnostics.iter().any(spear_core::Diagnostic::is_error) {
            return Err(format!("plan {} fails verification", plan.name));
        }
    }
    Ok(())
}

/// Replay the fleet's routing decisions (`Router::route` plus the churn
/// schedule) over the same stream, timing only the route calls.
fn route_replay(workload: Workload, instance: &Instance, layers: &mut Layers) {
    let config = workload.cluster_config(instance, 1.0);
    let mut router = Router::new(config.router.clone(), 0..config.initial_nodes as u64);
    let mut churn = config.churn.clone();
    churn.sort_by_key(|e| e.at_us);
    let mut churn = churn.into_iter().peekable();
    let mut total = Duration::ZERO;
    for request in instance.requests(1.0) {
        while let Some(event) = churn.next_if(|e| e.at_us <= request.arrival_us) {
            match event.action {
                spear_cluster::ChurnAction::Join => router.join(event.node),
                spear_cluster::ChurnAction::Drain => drop(router.drain(event.node)),
                spear_cluster::ChurnAction::Leave => drop(router.leave(event.node)),
            }
        }
        let seed = request.plan.affinity_seed();
        let started = Instant::now();
        std::hint::black_box(router.route(seed, request.id, request.est_tokens));
        total += started.elapsed();
    }
    layers.route_ns += total.as_nanos() as u64;
    layers.routed += instance.rows.len() as u64;
}

/// Everything a run measured.
pub struct RunResult {
    /// The first mismatch; `None` when every check passed.
    pub mismatch: Option<String>,
    /// Requests sent over the reference passes.
    pub attempted: u64,
    /// Requests that ended in an error state.
    pub failed: u64,
    /// Median set-up CPU time, s.
    pub setup_s: f64,
    /// Median CPU time of the yardstick job, s.
    pub yardstick_s: f64,
    /// Pooled virtual results.
    pub virt: Virtual,
    /// `(requests, process CPU time)` per timed pass (untraced).
    pub host_rps: Vec<(usize, Duration)>,
    /// The same per traced pass (traced runs).
    pub traced_rps: Vec<(usize, Duration)>,
    /// Median over the check passes of their peak heap growth, bytes.
    pub peak_heap_bytes: f64,
    /// Highest ladder rate meeting the interactive limit (`serve_refine`,
    /// `fleet_churn`; untraced runs).
    pub max_rate_rps: Option<f64>,
    /// Base arrival rate, requests per virtual second.
    pub base_rate_rps: f64,
    /// 1-lane (check-pass) fingerprints, one per checked instance.
    pub fingerprints: Vec<u64>,
    /// Serve reports of the reference passes, one per node and pass.
    pub reports: Vec<ServeReport>,
    /// Fleet reports of the reference passes.
    pub clusters: Vec<ClusterReport>,
    /// Per-layer host numbers (traced runs).
    pub layers: Layers,
}

/// Generate the instances, lower and compile-check their plans, and build
/// the serving objects once — the work `setup_s` times.
fn setup_once(workload: Workload, seed: u64) -> Result<Vec<Instance>, String> {
    let shape = workload.shape();
    let mut instances = Vec::with_capacity(shape.instances);
    for index in 0..shape.instances {
        let instance = Instance::generate(workload, instance_seed(seed, index));
        let engine = engine_for(&instance, 0);
        let runtime = runtime_for(&instance, Arc::clone(&engine) as Arc<dyn LlmClient>);
        for plan in &instance.plans {
            let program = vm::compile(plan).map_err(|e| format!("compile {}: {e}", plan.name))?;
            std::hint::black_box(vm::optimize(&program));
            if runtime
                .verify_lowered(plan)
                .iter()
                .any(spear_core::Diagnostic::is_error)
            {
                return Err(format!("plan {} fails verification", plan.name));
            }
        }
        if workload == Workload::FleetChurn {
            std::hint::black_box(spear_cluster::Cluster::new(
                workload.cluster_config(&instance, 1.0),
            ));
        } else {
            std::hint::black_box(ServeNode::new(workload.serve_config(2)));
        }
        std::hint::black_box((engine, runtime));
        instances.push(instance);
    }
    Ok(instances)
}

/// Run the benchmark once.
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let shape = workload.shape();
    let epoch = Instant::now();

    let mut setup_times = Vec::new();
    let mut yardsticks = Vec::new();
    let mut setup = |times: &mut Vec<f64>| -> Result<Vec<Instance>, String> {
        let started = cpu::process_cpu();
        let instances = setup_once(workload, seed)?;
        times.push((cpu::process_cpu() - started).as_secs_f64());
        yardsticks.push(yardstick_cpu().as_secs_f64());
        Ok(instances)
    };
    let instances = setup(&mut setup_times)?;

    let mut result = RunResult {
        mismatch: None,
        attempted: 0,
        failed: 0,
        setup_s: 0.0,
        yardstick_s: 0.0,
        virt: Virtual::default(),
        host_rps: Vec::new(),
        traced_rps: Vec::new(),
        peak_heap_bytes: 0.0,
        max_rate_rps: None,
        base_rate_rps: 1e6 / shape.mean_gap_us as f64,
        fingerprints: Vec::new(),
        reports: Vec::new(),
        clusters: Vec::new(),
        layers: Layers::default(),
    };

    // Check passes over the first `shape.checked` instances, each with its
    // oracle and, on traced runs, the layer split.
    let mut oracles = Vec::with_capacity(instances.len());
    let mut heap_peaks = Vec::with_capacity(shape.checked);
    for (index, instance) in instances.iter().take(shape.checked).enumerate() {
        let mode = PassMode {
            lanes: 1,
            pressure: true,
            probe: Some(epoch),
            heap: true,
        };
        let (pass, heap) = serve(workload, instance, 1.0, mode);
        heap_peaks.push(heap.peak_growth_bytes as f64);
        let (rows, responses) = oracle(instance, &pass.nodes)?;
        if let Err(why) = check_against_oracle(&pass, &rows) {
            fail(&mut result, format!("instance {index}: {why}"));
        }
        if let Some(probe) = &pass.probe {
            let mut served: Vec<_> = probe.calls().iter().map(Call::response_key).collect();
            served.sort_unstable();
            if served != responses {
                fail(
                    &mut result,
                    format!(
                        "instance {index}: served GEN responses ({} calls) differ from the tree-walk oracle's ({} calls)",
                        served.len(),
                        responses.len()
                    ),
                );
            }
        }
        result.fingerprints.push(pass.fingerprint);
        if traced {
            if let Err(why) = split_layers(workload, instance, &pass, &mut result.layers, epoch) {
                fail(&mut result, format!("instance {index}: {why}"));
            }
            core_replay(workload, instance, &pass.nodes, &mut result.layers)?;
            time_compile(instance, &mut result.layers)?;
            if workload == Workload::FleetChurn {
                route_replay(workload, instance, &mut result.layers);
            }
        }
        oracles.push(rows);
    }
    result.peak_heap_bytes = stats::median(&heap_peaks);

    // Reference passes: virtual metrics and the first timing samples.
    // Unchecked instances get their oracle here, from the placement the
    // pass made (it matters on the fleet, whose nodes seed their engines
    // by node id).
    let two_lanes = PassMode {
        lanes: 2,
        pressure: true,
        probe: None,
        heap: false,
    };
    let timing_started = Instant::now();
    let mut references = Vec::with_capacity(instances.len());
    for (index, instance) in instances.iter().enumerate() {
        let (pass, _) = serve(workload, instance, 1.0, two_lanes);
        result.host_rps.push((pass.outcomes.len(), pass.cpu));
        if let Some(print) = result.fingerprints.get(index) {
            if *print != pass.fingerprint {
                let why = format!(
                    "instance {index}: fingerprint {print:016x} at 1 lane, {:016x} at 2",
                    pass.fingerprint
                );
                fail(&mut result, why);
            }
        }
        if index >= oracles.len() {
            oracles.push(oracle(instance, &pass.nodes)?.0);
        }
        if let Err(why) = check_against_oracle(&pass, &oracles[index]) {
            fail(&mut result, format!("instance {index} (2 lanes): {why}"));
        }
        if let Err(why) = result
            .virt
            .add(workload, instance, 1.0, &pass, &oracles[index])
        {
            fail(&mut result, format!("instance {index}: {why}"));
        }
        result.attempted += pass.outcomes.len() as u64;
        result.failed += pass
            .outcomes
            .iter()
            .filter(|o| o.status != ServeStatus::Completed)
            .count() as u64;
        references.push(pass.fingerprint);
        result.reports.extend(pass.reports);
        result.clusters.extend(pass.cluster);
        setup(&mut setup_times)?;
    }
    result
        .virt
        .finish()
        .map_err(|why| format!("attribution: {why}"))?;

    // Timed passes (alternating with traced passes on traced runs).
    let budget = Duration::from_secs(seconds);
    let mut next = 0usize;
    while timing_started.elapsed() < budget
        || result.host_rps.len() < MIN_TIMED
        || (traced && result.traced_rps.len() < MIN_TIMED)
    {
        let index = next % instances.len();
        next += 1;
        let (pass, _) = serve(workload, &instances[index], 1.0, two_lanes);
        result.host_rps.push((pass.outcomes.len(), pass.cpu));
        if pass.fingerprint != references[index] {
            fail(
                &mut result,
                format!("instance {index}: fingerprint changed between passes"),
            );
        }
        if traced {
            let mode = PassMode {
                lanes: 2,
                pressure: true,
                probe: Some(epoch),
                heap: false,
            };
            let (pass, _) = serve(workload, &instances[index], 1.0, mode);
            result.traced_rps.push((pass.outcomes.len(), pass.cpu));
        }
        setup(&mut setup_times)?;
    }
    while setup_times.len() < SETUP_REPS {
        setup(&mut setup_times)?;
    }
    result.setup_s = stats::median(&setup_times);
    result.yardstick_s = stats::median(&yardsticks);

    if !traced && matches!(workload, Workload::ServeRefine | Workload::FleetChurn) {
        let probed = LADDER_INSTANCES.min(instances.len());
        let rate_x = max_rate(workload, &instances[..probed], &oracles[..probed])?;
        result.max_rate_rps = Some(rate_x * result.base_rate_rps);
    }
    Ok(result)
}

/// Record a correctness mismatch (the first one is reported).
fn fail(result: &mut RunResult, why: String) {
    result.mismatch.get_or_insert(why);
}

/// CPU time of a fixed job that uses only the standard library and does the
/// kind of host work serving does — build strings, hash them into a map,
/// sort — as a yardstick of how fast the machine runs at the moment. It
/// shares no code with the program, so no change to the program moves it.
fn yardstick_cpu() -> Duration {
    let started = cpu::process_cpu();
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for i in 0..50_000u64 {
        *counts
            .entry(format!("family-{}-item-{}", i % 97, i % 1009))
            .or_insert(0) += i;
    }
    let mut rows: Vec<(String, u64)> = counts.into_iter().collect();
    rows.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    std::hint::black_box(rows);
    cpu::process_cpu() - started
}

/// Requests per host CPU-second over a set of passes.
pub fn rps(passes: &[(usize, Duration)]) -> f64 {
    let requests: usize = passes.iter().map(|(n, _)| n).sum();
    let cpu: Duration = passes.iter().map(|(_, t)| *t).sum();
    requests as f64 / cpu.as_secs_f64()
}

/// Record the layer split of a check pass (1 lane; fleet: sequential).
fn split_layers(
    workload: Workload,
    instance: &Instance,
    pass: &Pass,
    layers: &mut Layers,
    epoch: Instant,
) -> Result<(), String> {
    layers.serve_run_ns += pass.wall.as_nanos() as u64;
    layers.split_kv_steps += pass.reports.iter().map(|r| r.kv.steps).sum::<u64>();
    let run_id = layers.spans.len();
    let start_ns = pass.started.duration_since(epoch).as_nanos() as u64;
    layers.spans.push(format!(
        "{{\"id\":{run_id},\"parent\":null,\"name\":\"serve.run\",\"clock\":\"host\",\"instance\":{},\"start_ns\":{start_ns},\"end_ns\":{}}}",
        instance.seed,
        start_ns + pass.wall.as_nanos() as u64
    ));
    if let Some(probe) = &pass.probe {
        let calls = probe.calls();
        layers.llm_calls += calls.len() as u64;
        layers.llm_busy_ns += calls.iter().map(|c| c.end_ns - c.start_ns).sum::<u64>();
        layers.engine.add(pass.engine);
        for call in &calls {
            let id = layers.spans.len();
            layers.spans.push(format!(
                "{{\"id\":{id},\"parent\":{run_id},\"name\":\"llm.generate\",\"clock\":\"host\",\"lane\":{},\"start_ns\":{},\"end_ns\":{},\"memo\":{}}}",
                call.thread, call.start_ns, call.end_ns, call.reused
            ));
        }
    }
    let arrivals = instance.requests(1.0);
    for (outcome, request) in pass.outcomes.iter().zip(&arrivals) {
        let id = layers.spans.len();
        layers.spans.push(format!(
            "{{\"id\":{id},\"parent\":{run_id},\"name\":\"request\",\"clock\":\"virtual\",\"request\":{},\"class\":\"{}\",\"arrival_us\":{},\"start_us\":{},\"finish_us\":{}}}",
            outcome.id,
            request.priority.label(),
            request.arrival_us,
            outcome.finish_us.saturating_sub(outcome.service_us),
            outcome.finish_us
        ));
    }
    if workload == Workload::KvBurst {
        let mode = PassMode {
            lanes: 1,
            pressure: false,
            probe: Some(epoch),
            heap: false,
        };
        let (unpressured, _) = serve(workload, instance, 1.0, mode);
        if unpressured.fingerprint != pass.fingerprint {
            return Err("the KV pool changed the fingerprint".into());
        }
        layers.unpressured_run_ns += unpressured.wall.as_nanos() as u64;
    }
    Ok(())
}

/// The highest ladder multiple of the base rate at which the pooled
/// instances meet the interactive limit at p99 with no failures and no
/// backlog left growing (every instance drains within the limit after its
/// last arrival). Binary search; the ladder is assumed monotone.
fn max_rate(
    workload: Workload,
    instances: &[Instance],
    oracles: &[Vec<OracleRow>],
) -> Result<f64, String> {
    let limit = workload.shape().limit_us(Priority::Interactive);
    let meets = |rate_x: f64| -> Result<bool, String> {
        let mut virt = Virtual::default();
        for (instance, oracle) in instances.iter().zip(oracles) {
            let mode = PassMode {
                lanes: 2,
                pressure: true,
                probe: None,
                heap: false,
            };
            let (pass, _) = serve(workload, instance, rate_x, mode);
            virt.add(workload, instance, rate_x, &pass, oracle)?;
        }
        virt.finish()?;
        let p99 = stats::quantile(&virt.interactive_e2e, 0.99).unwrap_or(u64::MAX);
        Ok(stats::error_pct(&virt.slo_rows) == 0.0 && p99 <= limit && virt.max_drain_us <= limit)
    };
    let (mut lo, mut hi) = (0usize, LADDER.len()); // answer in LADDER[..hi], 0 = none
    let mut best = 0.0;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if meets(LADDER[mid])? {
            best = LADDER[mid];
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(best)
}
