//! The serving scheduler: one pipeline that admits, places, executes,
//! classifies, times, and reports a workload on a virtual clock.
//!
//! ## One pipeline, two timing models
//!
//! [`ServeNode::run`] passes every request through the same stages:
//! **admit** (memoized plan verification, then the token bucket and depth
//! limit; a shed request gets its typed `Rejected` outcome and goes no
//! further), **place** (owner group and lane, below), **execute**
//! ([`BatchRunner::run_assigned`], one real thread per active lane),
//! **classify** (status, service time, trace digest, usage, class
//! counters, reuse ledger), **time**, and **report**. Only the time stage,
//! and how admission interleaves with execution, depends on
//! [`ServeConfig::pressure`]:
//!
//! - **Lanes** (no pressure): each round admits every request that has
//!   arrived by `now`, pops up to `lanes × quantum` of them, executes them
//!   as one batch, charges each job's service time to its lane's virtual
//!   clock, and advances `now` to the earliest free lane (or the next
//!   arrival when idle). Admission must interleave with execution: depth
//!   shedding reads queue depth, which depends on the lane clocks.
//! - **KV iterations** (pressure): the bounded KV pool is the backpressure
//!   valve, so each admitted request drains at once and depth never
//!   binds. Everything executes in arrival order, then [`crate::kv`]
//!   times the measured token footprints through the pool.
//!
//! Pressure is a timing model, never a results model: statuses, digests,
//! and usage are identical under either. All timing is virtual, so a run
//! is reproducible on any host.
//!
//! ## Cache-affinity routing
//!
//! With `affinity_routing` on, requests whose lowered plans share an
//! [`affinity key`](spear_core::plan::LoweredPlan::affinity_key) — i.e.
//! whose prompts share a structured prefix — are mapped to the same cache
//! owner and the same lane. Same-owner jobs execute sequentially in
//! arrival order on one thread, so each sees its predecessors' prefix
//! insertions deterministically; the owner-aware cache in `spear-llm`
//! turns that into real hit-rate, as `BENCH_serve.json` witnesses. With
//! affinity off, every request gets a fresh owner (full isolation, no
//! cross-request reuse) and lanes are assigned round-robin.
//!
//! ## Determinism across lane counts
//!
//! For a fixed workload, per-request **traces** are byte-identical at any
//! lane count (pinned by proptest), because every input to an execution
//! is lane-count-invariant: token-bucket admission is a function of
//! arrival timestamps only; an owner group's members are dispatched in
//! arrival order (per-class FIFO) whatever the interleaving; deadlines
//! bound the job's *own* accumulated service time, not wall or queue
//! time. Queue waits, end-to-end latencies, and depth-based shedding do
//! scale with capacity — that is the point of adding lanes — so the
//! *report* is per-configuration while the *traces* are not.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spear_core::batch::{AssignedJob, BatchOutcome, BatchRunner};
use spear_core::error::SpearError;
use spear_core::llm::ReusePolicy;
use spear_core::metadata::{ReuseEvent, TokenUsage};
use spear_core::runtime::Runtime;
use spear_kv::shard::fnv1a;
use spear_llm::{CacheStats, MemoStats, SimLlm};

use crate::error::ServeError;
use crate::kv::{self, KvPressureConfig, SeqInput};
use crate::metrics::{ClassReport, Histogram, KvReport, ReuseReport, ServeReport};
use crate::program_cache::ProgramCache;
use crate::queue::{AdmissionConfig, AdmissionQueue};
use crate::request::{Priority, ServeRequest};

/// Owner-id namespace for serve-assigned cache groups: disjoint from
/// `BatchRunner`'s small sequential ids and from `SimLlm::submit_many`'s
/// `1 << 63` namespace.
const SERVE_OWNER_BASE: u64 = 1 << 62;

/// Distinct plan families the admission-verification memo holds before
/// resetting (overflow means an adversarially diverse workload; clearing
/// just re-verifies, it never changes decisions).
const VERIFY_MEMO_CAPACITY: usize = 1024;

/// Scheduler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker lanes to dispatch onto (also the `BatchRunner` pool size).
    pub lanes: usize,
    /// Maximum requests dispatched per lane per round.
    pub quantum: usize,
    /// Route same-affinity-key requests to a shared cache owner and lane.
    pub affinity_routing: bool,
    /// Admission-control limits.
    pub admission: AdmissionConfig,
    /// Statically verify each request's plan at admission and reject
    /// requests whose plan has error-severity defects (bad jump targets,
    /// undefined prompt keys, budget-infeasible deadlines, …) before any
    /// LLM call or queue slot is spent. Default on; turn off only for
    /// workloads known-verified out of band.
    pub verify_admission: bool,
    /// The timing model. `None` times each request on per-lane virtual
    /// clocks with unbounded memory. `Some` times the run's measured token
    /// footprints through a bounded KV block pool with token-level
    /// continuous batching (see [`crate::kv`]). Either way the same
    /// pipeline admits, places, and executes every request, so statuses,
    /// digests, and usage are identical — the pool shapes *timing* (queue
    /// waits, service, preemptions, evictions), not results. Under
    /// pressure the pool itself is the backpressure valve, so queue-depth
    /// shedding never binds (token bucket and plan verification still
    /// apply).
    pub pressure: Option<KvPressureConfig>,
    /// Capacity of the node's compiled-program cache
    /// ([`crate::program_cache::ProgramCache`]): distinct
    /// `(plan fingerprint, affinity key)` pairs held resident. Admissions
    /// beyond capacity evict least-recently-used programs (counted in
    /// [`crate::metrics::CompileReport`]).
    pub program_cache_capacity: usize,
    /// Whole-call generation reuse (DESIGN.md §15): stamp each request's
    /// execution state with [`ReusePolicy::Exact`] so duplicate GENs are
    /// served from the engine's single-flight memo. Observably invisible —
    /// statuses, digests, per-request usage, and cache counters are
    /// byte-identical to reuse-off (pinned by proptest); only host cost
    /// and the [`crate::metrics::ReuseReport`] ledger change. Default on:
    /// serving is exactly where duplicate-heavy traffic lives.
    pub reuse: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            lanes: 4,
            quantum: 4,
            affinity_routing: true,
            admission: AdmissionConfig::default(),
            verify_admission: true,
            pressure: None,
            program_cache_capacity: 64,
            reuse: true,
        }
    }
}

/// Terminal status of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeStatus {
    /// Ran to completion.
    Completed,
    /// Shed by admission control (never executed).
    Rejected {
        /// The typed overload error.
        error: ServeError,
    },
    /// Cancelled by its service deadline between plan slots.
    DeadlineExceeded {
        /// Virtual service time accumulated when cancelled.
        after_us: u64,
    },
    /// Cancelled via its [`spear_core::cancel::CancelToken`].
    Cancelled {
        /// Reason carried by the token.
        reason: String,
    },
    /// The pipeline failed with a runtime error.
    Failed {
        /// Rendered error.
        error: String,
    },
}

/// Per-request result of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Request id.
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Terminal status.
    pub status: ServeStatus,
    /// Virtual µs spent queued (0 unless dispatched).
    pub queue_wait_us: u64,
    /// Virtual µs of execution time (partial time for cancelled runs).
    pub service_us: u64,
    /// Virtual completion timestamp (0 for rejected requests).
    pub finish_us: u64,
    /// Trace digest of the completed execution (`None` unless completed).
    pub trace_digest: Option<u64>,
    /// Token usage of the completed execution (zero unless completed).
    pub usage: TokenUsage,
    /// Times the request was preempted by the KV scheduler (always 0
    /// without `ServeConfig::pressure`).
    pub preemptions: u32,
}

impl ServeOutcome {
    /// An outcome with nothing measured or timed yet.
    fn untimed(id: u64, priority: Priority, status: ServeStatus) -> Self {
        Self {
            id,
            priority,
            status,
            queue_wait_us: 0,
            service_us: 0,
            finish_us: 0,
            trace_digest: None,
            usage: TokenUsage::default(),
            preemptions: 0,
        }
    }
}

/// Everything a serving run produced: per-request outcomes (in request-id
/// order) and the aggregate report.
#[derive(Debug)]
pub struct ServeRun {
    /// One outcome per submitted request, sorted by id.
    pub outcomes: Vec<ServeOutcome>,
    /// Aggregate metrics snapshot.
    pub report: ServeReport,
}

impl ServeRun {
    /// The outcome for a request id, if it was part of the run.
    #[must_use]
    pub fn outcome(&self, id: u64) -> Option<&ServeOutcome> {
        self.outcomes
            .binary_search_by_key(&id, |o| o.id)
            .ok()
            .map(|i| &self.outcomes[i])
    }
}

/// Aggregation scratch for one priority class.
#[derive(Debug, Default)]
struct ClassAccum {
    report: ClassReport,
    queue_depth: Histogram,
    queue_wait_us: Histogram,
    service_us: Histogram,
    e2e_us: Histogram,
}

impl ClassAccum {
    fn finish(mut self) -> ClassReport {
        self.report.queue_depth = self.queue_depth.summary();
        self.report.queue_wait_us = self.queue_wait_us.summary();
        self.report.service_us = self.service_us.summary();
        self.report.e2e_us = self.e2e_us.summary();
        self.report
    }
}

/// The long-lived serving node: a scheduler plus its worker-lane pool.
/// One node can serve many successive [`ServeNode::run`] calls; owner ids
/// never alias across runs.
#[derive(Debug)]
pub struct ServeNode {
    config: ServeConfig,
    runner: BatchRunner,
    run_seq: AtomicU64,
    programs: ProgramCache,
}

impl ServeNode {
    /// A node with `config.lanes` worker lanes.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let lanes = config.lanes.max(1);
        let programs = ProgramCache::new(config.program_cache_capacity);
        Self {
            config: ServeConfig { lanes, ..config },
            runner: BatchRunner::new(lanes),
            run_seq: AtomicU64::new(0),
            programs,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The node's compiled-program cache (shared across runs).
    #[must_use]
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// Serve a workload to completion and return per-request outcomes
    /// plus the aggregate report.
    ///
    /// `requests` must be sorted by non-decreasing `arrival_us` with
    /// unique ids (the load generator produces exactly this shape); the
    /// engine reference, when given, lets the report include engine-level
    /// cache counters for the run.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not sorted by arrival time or contains
    /// duplicate ids — both are harness bugs, not load conditions, and
    /// both are checked before any request is admitted or executed.
    pub fn run(
        &self,
        runtime: &Runtime,
        engine: Option<&SimLlm>,
        requests: Vec<ServeRequest>,
    ) -> ServeRun {
        assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_us <= w[1].arrival_us),
            "requests must arrive in non-decreasing virtual-time order"
        );
        assert!(ids_unique(&requests), "request ids must be unique");
        let mut run = RunCtx::new(self, runtime, engine, &requests);
        // `pressure` picks the timing model: lane clocks or KV iterations.
        let (makespan_us, kv) = match &self.config.pressure {
            None => (run.serve_on_lanes(requests), KvReport::default()),
            Some(pressure) => run.serve_through_kv(requests, pressure),
        };
        run.report(makespan_us, kv)
    }

    /// Deterministic reuse ledger: classify each duplicate GEN as `coalesced`
    /// (its request arrived while the nominal leader — the first arrival for
    /// that memo key — was still in service) or a plain cache `hit`
    /// (arrived after the leader finished). Built from arrival order and
    /// virtual service times only, so the counters are identical at any lane
    /// count even though *which* physical call populated the memo varies.
    fn reuse_ledger(mut rows: Vec<(u64, u64, u64, Vec<ReuseEvent>)>) -> ReuseReport {
        rows.sort_by_key(|&(arrival_us, id, _, _)| (arrival_us, id));
        let mut leaders: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut report = ReuseReport::default();
        for (arrival_us, _, service_us, events) in rows {
            for event in events {
                match leaders.entry(event.key) {
                    Entry::Vacant(slot) => {
                        slot.insert((arrival_us, service_us));
                    }
                    Entry::Occupied(slot) => {
                        let (lead_arrival, lead_service) = *slot.get();
                        if arrival_us < lead_arrival.saturating_add(lead_service) {
                            report.coalesced += 1;
                        } else {
                            report.hits += 1;
                        }
                        report.saved_calls += 1;
                        report.saved_tokens += event.prompt_tokens + event.completion_tokens;
                    }
                }
            }
        }
        report
    }

    /// Order-canonical fold of statuses and trace digests, keyed by id.
    fn fingerprint(outcomes: &[ServeOutcome]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for o in outcomes {
            mix(o.id);
            let tag = match &o.status {
                ServeStatus::Completed => 1,
                ServeStatus::Rejected { .. } => 2,
                ServeStatus::DeadlineExceeded { .. } => 3,
                ServeStatus::Cancelled { .. } => 4,
                ServeStatus::Failed { .. } => 5,
            };
            mix(tag);
            mix(o.trace_digest.unwrap_or(0));
        }
        hash
    }
}

/// Where a request runs: its cache owner and lane, plus the KV chain-hash
/// seed its footprint is scheduled under.
#[derive(Debug, Clone, Copy)]
struct Placement {
    owner: u64,
    lane: usize,
    /// Equal across an affinity group, unique to the request otherwise.
    family_seed: u64,
    /// Whether the request shares its owner (hence its prompt prefix's
    /// KV blocks) with an affinity family.
    grouped: bool,
}

/// A request in flight: placed, then classified, then timed.
#[derive(Debug)]
struct InFlight {
    /// Status, measured service time, digest, and usage; untimed until
    /// the time stage.
    outcome: ServeOutcome,
    arrival_us: u64,
    placement: Placement,
    /// The request's claimed prompt prefix shared with its family.
    shared_prefix_tokens: u64,
    gen_calls: u64,
}

impl InFlight {
    /// KV footprint of the sequence's device residency. Usage totals
    /// accumulate over every GEN call of the plan, but the calls run
    /// serially over one growing context — the resident footprint is the
    /// per-call prompt (averaged: calls share the prompt's prefix) plus
    /// everything decoded across calls. Only a completed, grouped request
    /// claims its family's shared prefix.
    fn seq_input(&self) -> SeqInput {
        let shares = self.placement.grouped && self.outcome.status == ServeStatus::Completed;
        SeqInput {
            id: self.outcome.id,
            priority: self.outcome.priority,
            arrival_us: self.arrival_us,
            prompt_tokens: self.outcome.usage.prompt_tokens / self.gen_calls,
            completion_tokens: self.outcome.usage.completion_tokens,
            shared_prefix_tokens: if shares { self.shared_prefix_tokens } else { 0 },
            family_seed: self.placement.family_seed,
        }
    }
}

/// Everything one [`ServeNode::run`] call owns. Nothing here outlives the
/// call, so concurrent runs on one node never share verdicts, counters,
/// or owner groups.
struct RunCtx<'a> {
    node: &'a ServeNode,
    runtime: &'a Runtime,
    engine: Option<&'a SimLlm>,
    /// Engine counters at the start of the run.
    before: Option<(CacheStats, MemoStats)>,
    reuse: ReusePolicy,
    owner_base: u64,
    next_owner: u64,
    round_robin: usize,
    /// (class, affinity key) → the family's shared placement.
    groups: HashMap<(Priority, String), Placement>,
    /// Admission-verification verdicts by plan family ([`verify_key`]):
    /// the full verifier runs once per family per run. The runtime's
    /// registries also feed the verdict, and each run brings its own
    /// runtime, which is why the memo lives exactly as long as the run.
    verdicts: HashMap<u64, Option<Vec<String>>>,
    verify_memo_hits: u64,
    /// Per-class accumulators, in [`Priority::ALL`] order.
    classes: [ClassAccum; 2],
    outcomes: Vec<ServeOutcome>,
    /// (arrival_us, id, service_us, per-GEN reuse events) of completed
    /// requests, for the deterministic reuse ledger.
    reuse_rows: Vec<(u64, u64, u64, Vec<ReuseEvent>)>,
}

impl<'a> RunCtx<'a> {
    fn new(
        node: &'a ServeNode,
        runtime: &'a Runtime,
        engine: Option<&'a SimLlm>,
        requests: &[ServeRequest],
    ) -> Self {
        let run_nonce = node.run_seq.fetch_add(1, Ordering::Relaxed);
        let mut classes: [ClassAccum; 2] = Default::default();
        for r in requests {
            classes[r.priority as usize].report.submitted += 1;
        }
        Self {
            node,
            runtime,
            engine,
            before: engine.map(|e| (e.cache_stats(), e.reuse_stats())),
            reuse: if node.config.reuse {
                ReusePolicy::Exact
            } else {
                ReusePolicy::Off
            },
            owner_base: SERVE_OWNER_BASE | (run_nonce << 32),
            next_owner: 0,
            round_robin: 0,
            groups: HashMap::new(),
            verdicts: HashMap::new(),
            verify_memo_hits: 0,
            classes,
            outcomes: Vec::with_capacity(requests.len()),
            reuse_rows: Vec::new(),
        }
    }

    fn class(&mut self, priority: Priority) -> &mut ClassAccum {
        &mut self.classes[priority as usize]
    }

    /// Admit stage: verify the plan, then offer the request to the queue's
    /// token bucket and depth limit. A shed request gets its `Rejected`
    /// outcome here. Returns whether the request was queued.
    fn admit(&mut self, queue: &mut AdmissionQueue, request: ServeRequest) -> bool {
        let priority = request.priority;
        let (id, error) = match self.verify(&request) {
            Some(details) => (
                request.id,
                ServeError::InvalidPlan {
                    plan: request.plan.name.clone(),
                    details,
                },
            ),
            None => match queue.offer(request) {
                Ok(()) => {
                    self.class(priority).report.admitted += 1;
                    return true;
                }
                Err(shed) => {
                    let (request, error) = *shed;
                    (request.id, error)
                }
            },
        };
        self.class(priority).report.rejected += 1;
        let status = ServeStatus::Rejected { error };
        self.outcomes
            .push(ServeOutcome::untimed(id, priority, status));
        false
    }

    /// Memoized admission verification: the rendered error diagnostics of
    /// [`verify_for_admission`], or `None` when the plan may run (always
    /// `None` with verification off).
    fn verify(&mut self, request: &ServeRequest) -> Option<Vec<String>> {
        if !self.node.config.verify_admission {
            return None;
        }
        let key = verify_key(request);
        if let Some(verdict) = self.verdicts.get(&key) {
            self.verify_memo_hits += 1;
            return verdict.clone();
        }
        let verdict = verify_for_admission(self.runtime, request);
        if self.verdicts.len() >= VERIFY_MEMO_CAPACITY {
            self.verdicts.clear();
        }
        self.verdicts.insert(key, verdict.clone());
        verdict
    }

    /// Place stage. With affinity routing, requests sharing a (class,
    /// affinity key) join one owner group pinned to lane `seed % lanes`,
    /// where the family seed is `fnv1a(key)` — by definition
    /// [`LoweredPlan::affinity_seed`](spear_core::plan::LoweredPlan::affinity_seed).
    /// Every other request gets a fresh owner on a round-robin lane and a
    /// seed of its own.
    fn place(&mut self, request: &ServeRequest) -> Placement {
        let lanes = self.node.config.lanes;
        let owner = self.owner_base + self.next_owner;
        let key = if self.node.config.affinity_routing {
            request.affinity_key()
        } else {
            None
        };
        let placement = match key.map(|key| self.groups.entry((request.priority, key))) {
            Some(Entry::Occupied(group)) => return *group.get(),
            Some(Entry::Vacant(group)) => {
                let family_seed = fnv1a(group.key().1.as_bytes());
                *group.insert(Placement {
                    owner,
                    lane: (family_seed % lanes as u64) as usize,
                    family_seed,
                    grouped: true,
                })
            }
            None => {
                let lane = self.round_robin % lanes;
                self.round_robin += 1;
                Placement {
                    owner,
                    lane,
                    family_seed: fnv1a(&request.id.to_le_bytes()),
                    grouped: false,
                }
            }
        };
        self.next_owner += 1;
        placement
    }

    /// Execute stage: place each request, run them all as one assigned
    /// batch, and classify every result, in input order.
    fn execute(&mut self, requests: Vec<ServeRequest>) -> Vec<InFlight> {
        let mut executed = Vec::with_capacity(requests.len());
        let mut jobs = Vec::with_capacity(requests.len());
        for mut request in requests {
            let placement = self.place(&request);
            request.state.deadline_us = request.deadline_us;
            request.state.cancel = Some(request.cancel.clone());
            request.state.reuse = self.reuse;
            let programs = &self.node.programs;
            jobs.push(AssignedJob {
                lane: placement.lane,
                owner: placement.owner,
                plan: Arc::clone(&request.plan),
                program: programs.get_or_compile(&request.plan, self.runtime, self.engine),
                state: std::mem::take(&mut request.state),
            });
            executed.push(InFlight {
                outcome: ServeOutcome::untimed(
                    request.id,
                    request.priority,
                    ServeStatus::Completed,
                ),
                arrival_us: request.arrival_us,
                placement,
                shared_prefix_tokens: request.shared_prefix_tokens,
                gen_calls: 1,
            });
        }
        let results = self.node.runner.run_assigned(self.runtime, jobs);
        for (request, result) in executed.iter_mut().zip(results) {
            self.classify(request, result);
        }
        executed
    }

    /// Classify stage: one execution result sets the outcome's status,
    /// service time, digest, and usage (plus the GEN-call count) and is
    /// counted into its class; a completed request's reuse events join
    /// the reuse ledger.
    fn classify(&mut self, request: &mut InFlight, result: spear_core::Result<BatchOutcome>) {
        let outcome = &mut request.outcome;
        let report = &mut self.classes[outcome.priority as usize].report;
        match result {
            Ok(mut done) => {
                let metadata = &mut done.state.metadata;
                report.completed += 1;
                report.prompt_tokens += metadata.usage.prompt_tokens;
                report.cached_tokens += metadata.usage.cached_tokens;
                let events = std::mem::take(&mut metadata.reuse_events);
                if !events.is_empty() {
                    let row = (request.arrival_us, outcome.id, metadata.latency_us, events);
                    self.reuse_rows.push(row);
                }
                outcome.service_us = metadata.latency_us;
                outcome.trace_digest = done.state.trace.digest().ok();
                outcome.usage = metadata.usage;
                request.gen_calls = metadata.gen_calls.max(1);
            }
            Err(SpearError::Cancelled { reason, after_us }) => {
                outcome.service_us = after_us;
                outcome.status = if reason == "deadline" {
                    report.deadline_exceeded += 1;
                    ServeStatus::DeadlineExceeded { after_us }
                } else {
                    report.cancelled += 1;
                    ServeStatus::Cancelled { reason }
                };
            }
            Err(error) => {
                report.failed += 1;
                outcome.status = ServeStatus::Failed {
                    error: error.to_string(),
                };
            }
        }
    }

    /// Stamp a request's outcome with its virtual start and finish, and
    /// record it.
    fn finish(&mut self, request: InFlight, start_us: u64, finish_us: u64) {
        let (mut outcome, arrival_us) = (request.outcome, request.arrival_us);
        outcome.queue_wait_us = start_us.saturating_sub(arrival_us);
        outcome.finish_us = finish_us;
        let accum = self.class(outcome.priority);
        accum.queue_wait_us.record(outcome.queue_wait_us);
        accum.service_us.record(outcome.service_us);
        accum.e2e_us.record(finish_us.saturating_sub(arrival_us));
        self.outcomes.push(outcome);
    }

    /// Lanes timing: admission interleaved with execution, round by
    /// round, each job charged to its lane's clock in dispatch order (so
    /// same-lane jobs queue behind each other). Returns the makespan.
    fn serve_on_lanes(&mut self, requests: Vec<ServeRequest>) -> u64 {
        let config = &self.node.config;
        let round_size = config.lanes * config.quantum.max(1);
        let mut queue = AdmissionQueue::new(config.admission.clone());
        let mut lane_clock = vec![0u64; config.lanes];
        let mut arrivals = requests.into_iter().peekable();
        let mut now = 0u64;
        loop {
            while let Some(request) = arrivals.next_if(|r| r.arrival_us <= now) {
                let priority = request.priority;
                if self.admit(&mut queue, request) {
                    let depth = queue.depth(priority) as u64;
                    self.class(priority).queue_depth.record(depth);
                }
            }
            let round = queue.pop_batch(round_size);
            if round.is_empty() {
                match arrivals.peek() {
                    Some(next) => {
                        now = now.max(next.arrival_us);
                        continue;
                    }
                    None => break,
                }
            }
            for request in self.execute(round) {
                let lane = request.placement.lane;
                let start_us = lane_clock[lane].max(now);
                lane_clock[lane] = start_us + request.outcome.service_us;
                self.finish(request, start_us, lane_clock[lane]);
            }
            // Advance to the earliest time a lane frees up.
            now = now.max(lane_clock.iter().copied().min().unwrap_or(now));
        }
        lane_clock.into_iter().max().unwrap_or(0)
    }

    /// KV-iteration timing: each admitted request drains at once (depth
    /// never binds), everything executes in arrival order, and
    /// [`kv::simulate`] then times the measured footprints through the
    /// bounded pool on its single-threaded virtual clock, so the contended
    /// counters are lane-count-invariant by construction. Returns the
    /// makespan and the pool's counters.
    fn serve_through_kv(
        &mut self,
        requests: Vec<ServeRequest>,
        pressure: &KvPressureConfig,
    ) -> (u64, KvReport) {
        let mut queue = AdmissionQueue::new(self.node.config.admission.clone());
        let mut admitted = Vec::with_capacity(requests.len());
        for request in requests {
            if self.admit(&mut queue, request) {
                admitted.extend(queue.pop());
            }
        }
        let executed = self.execute(admitted);
        let inputs: Vec<SeqInput> = executed.iter().map(InFlight::seq_input).collect();
        let sim = kv::simulate(&inputs, pressure);
        for (mut request, timing) in executed.into_iter().zip(&sim.timings) {
            let outcome = &mut request.outcome;
            // Completed requests take the KV scheduler's token-level
            // timing; the rest keep their measured partial service,
            // placed at their scheduling instant.
            let finish_us = if outcome.status == ServeStatus::Completed {
                outcome.service_us = timing.service_us;
                timing.finish_us
            } else {
                timing.start_us + outcome.service_us
            };
            outcome.preemptions = timing.preemptions;
            self.finish(request, timing.start_us, finish_us);
        }
        for (class, depth) in sim.depth_samples {
            self.class(class).queue_depth.record(depth);
        }
        for (accum, preempted) in self.classes.iter_mut().zip(sim.preempted_by_class) {
            accum.report.preempted = preempted;
        }
        (sim.makespan_us, sim.report)
    }

    /// Report stage: outcomes in id order, their fingerprint, and the
    /// aggregate report around the timing model's makespan and KV
    /// counters.
    fn report(self, makespan_us: u64, kv: KvReport) -> ServeRun {
        let mut outcomes = self.outcomes;
        outcomes.sort_by_key(|o| o.id);
        let [interactive, batch] = self.classes;
        let mut compile = self.node.programs.drain_counters();
        compile.verify_memo_hits = self.verify_memo_hits;
        let mut report = ServeReport {
            lanes: self.node.config.lanes,
            affinity_routing: self.node.config.affinity_routing,
            makespan_us,
            trace_fingerprint: ServeNode::fingerprint(&outcomes),
            interactive: interactive.finish(),
            batch: batch.finish(),
            cache: CacheStats::default(),
            kv,
            compile,
            cluster: None,
            reuse: ServeNode::reuse_ledger(self.reuse_rows),
        };
        if let (Some(engine), Some((cache, memo))) = (self.engine, self.before) {
            report.cache = engine.cache_stats().delta_since(&cache);
            let after = engine.reuse_stats();
            report.reuse.inserted = after.insertions.saturating_sub(memo.insertions);
            report.reuse.evicted = after.evictions.saturating_sub(memo.evictions);
            report.reuse.bytes = after.resident_bytes;
        }
        ServeRun { outcomes, report }
    }
}

/// Whether no two requests share an id. Ids usually arrive ascending,
/// which needs no copy; only otherwise is a sorted copy checked.
fn ids_unique(requests: &[ServeRequest]) -> bool {
    if requests.windows(2).all(|w| w[0].id < w[1].id) {
        return true;
    }
    let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.windows(2).all(|w| w[0] < w[1])
}

/// The admission-verification memo key: everything
/// [`verify_for_admission`] reads from the request (plan fingerprint ⊕
/// assumed prompt keys ⊕ deadline). The runtime's contribution is covered
/// by the memo living for one run only.
fn verify_key(request: &ServeRequest) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&request.plan.fingerprint().to_le_bytes());
    for key in request.state.prompts.keys() {
        bytes.extend_from_slice(key.as_bytes());
        bytes.push(0xff);
    }
    bytes.extend_from_slice(&request.deadline_us.unwrap_or(u64::MAX).to_le_bytes());
    fnv1a(&bytes)
}

/// Statically verify a request's plan at admission: full IR verification
/// against the runtime's registries, seeded with the prompt keys already
/// present in the request's starting state, with the request's service
/// deadline as the feasibility budget. When the IR verifier is clean and
/// a deadline is set, the decision is refined with the bytecode abstract
/// interpreter's interval bounds
/// ([`spear_core::analysis::absint::analyze`]): its latency floor walks
/// only paths that survive statically-decided CHECKs, so it is at least
/// the IR floor and can expose infeasibility the slot-order walk misses —
/// refinement only ever *adds* rejections, keeping the previous decisions
/// a strict subset. Returns the rendered error-severity diagnostics, or
/// `None` when the plan is sound enough to run.
fn verify_for_admission(runtime: &Runtime, request: &ServeRequest) -> Option<Vec<String>> {
    let mut verifier = spear_core::analysis::Verifier::with_runtime(runtime);
    for key in request.state.prompts.keys() {
        verifier = verifier.assume_prompt(key);
    }
    if let Some(deadline) = request.deadline_us {
        verifier = verifier.deadline_us(deadline);
    }
    let mut details: Vec<String> = verifier
        .verify(&request.plan)
        .iter()
        .filter(|d| d.is_error())
        .map(ToString::to_string)
        .collect();
    if details.is_empty() {
        if let Some(deadline) = request.deadline_us {
            if let Ok(program) = spear_core::vm::compile(&request.plan) {
                let bounds = spear_core::analysis::analyze(
                    &program,
                    &spear_core::analysis::ResourceModel::default(),
                );
                if bounds.latency_lo_us > deadline {
                    details.push(
                        spear_core::analysis::Diagnostic::plan_level(
                            &spear_core::analysis::lints::BUDGET_INFEASIBLE,
                            format!(
                                "every executable path needs at least {} µs of generation \
                                 but the deadline is {deadline} µs (bytecode interval bounds)",
                                bounds.latency_lo_us
                            ),
                        )
                        .to_string(),
                    );
                }
            }
        }
    }
    if details.is_empty() {
        None
    } else {
        Some(details)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_core::history::RefinementMode;
    use spear_core::llm::EchoLlm;
    use spear_core::pipeline::Pipeline;
    use spear_core::plan::{lower, LoweredPlan};
    use spear_core::runtime::ExecState;

    fn runtime() -> Runtime {
        Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
    }

    fn plan(gens: usize) -> Arc<LoweredPlan> {
        let mut b = Pipeline::builder("serve_test").create_text(
            "p",
            "Answer briefly: {{ctx:q}}",
            RefinementMode::Manual,
        );
        for i in 0..gens {
            b = b.gen(&format!("a{i}"), "p");
        }
        Arc::new(lower(&b.build()).expect("lowers"))
    }

    fn request(id: u64, class: Priority, arrival_us: u64) -> ServeRequest {
        let mut state = ExecState::new();
        state.context.set("q", format!("question {id}"));
        ServeRequest::new(id, class, plan(1), state, arrival_us)
    }

    #[test]
    fn all_requests_get_exactly_one_outcome() {
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let requests: Vec<_> = (0..20)
            .map(|i| {
                request(
                    i,
                    if i % 3 == 0 {
                        Priority::Batch
                    } else {
                        Priority::Interactive
                    },
                    i * 10,
                )
            })
            .collect();
        let run = node.run(&rt, None, requests);
        assert_eq!(run.outcomes.len(), 20);
        assert!(run
            .outcomes
            .iter()
            .all(|o| o.status == ServeStatus::Completed));
        let ids: Vec<u64> = run.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
        assert_eq!(
            run.report.interactive.completed + run.report.batch.completed,
            20
        );
        assert!(run.report.makespan_us > 0);
        assert!(run.outcome(7).is_some());
        assert!(run.outcome(99).is_none());
    }

    #[test]
    fn admission_verification_is_memoized_per_plan_family() {
        // Ten requests sharing one plan family (same fingerprint, same
        // prompt keys, no deadline): the first admission verifies, the
        // other nine hit the memo.
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let requests: Vec<_> = (0..10)
            .map(|i| request(i, Priority::Interactive, i * 10))
            .collect();
        let run = node.run(&rt, None, requests);
        assert_eq!(run.report.compile.verify_memo_hits, 9);

        // The memo is per-run state: a second run on the same node
        // re-verifies once, it does not carry 10 stale entries over.
        let requests: Vec<_> = (0..10)
            .map(|i| request(i, Priority::Interactive, i * 10))
            .collect();
        let run = node.run(&rt, None, requests);
        assert_eq!(run.report.compile.verify_memo_hits, 9);
    }

    #[test]
    fn service_deadline_produces_deadline_exceeded() {
        // Admission verification off: a 1 µs deadline is statically
        // infeasible and would be shed up front; this test exercises the
        // *runtime* deadline gate between plan slots.
        let node = ServeNode::new(ServeConfig {
            verify_admission: false,
            ..ServeConfig::default()
        });
        let rt = runtime();
        let mut state = ExecState::new();
        state.context.set("q", "slow question");
        // Two GEN slots with a 1us budget: the first completes (crossing
        // the line), the gate cancels before the second.
        let r = ServeRequest::new(1, Priority::Interactive, plan(2), state, 0).with_deadline_us(1);
        let run = node.run(&rt, None, vec![r]);
        let o = run.outcome(1).unwrap();
        assert!(
            matches!(o.status, ServeStatus::DeadlineExceeded { after_us } if after_us > 1),
            "{:?}",
            o.status
        );
        assert!(o.service_us > 0, "partial service time is charged");
        assert_eq!(run.report.interactive.deadline_exceeded, 1);
    }

    #[test]
    fn tripped_token_cancels_without_execution_effects() {
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let r = request(5, Priority::Batch, 0);
        r.cancel_handle().cancel();
        let run = node.run(&rt, None, vec![r]);
        let o = run.outcome(5).unwrap();
        assert!(
            matches!(&o.status, ServeStatus::Cancelled { reason } if reason == "cancelled"),
            "{:?}",
            o.status
        );
        assert_eq!(o.service_us, 0);
        assert_eq!(run.report.batch.cancelled, 1);
    }

    #[test]
    fn depth_overload_sheds_explicitly() {
        let node = ServeNode::new(ServeConfig {
            lanes: 1,
            quantum: 1,
            admission: AdmissionConfig {
                max_depth: 2,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        });
        let rt = runtime();
        // All arrive at t=0: one is dispatched per round; with depth 2,
        // later arrivals shed.
        let requests: Vec<_> = (0..6)
            .map(|i| request(i, Priority::Interactive, 0))
            .collect();
        let run = node.run(&rt, None, requests);
        let rejected = run
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, ServeStatus::Rejected { .. }))
            .count();
        assert!(rejected > 0, "overflow must shed");
        assert_eq!(run.report.interactive.rejected, rejected as u64);
        assert_eq!(
            run.report.interactive.admitted + run.report.interactive.rejected,
            6
        );
        for o in &run.outcomes {
            if let ServeStatus::Rejected { error } = &o.status {
                assert!(matches!(error, ServeError::Overloaded { .. }));
            }
        }
    }

    #[test]
    fn invalid_plans_are_rejected_at_admission() {
        // A plan that GENs from a never-created prompt key is caught by
        // the IR verifier at admission: rejected with a stable lint code
        // before any LLM call, while sound neighbours run to completion.
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let bad = Arc::new(
            lower(&Pipeline::builder("bad").gen("a", "missing_prompt").build())
                .expect("structurally sound, so it lowers"),
        );
        let requests = vec![
            request(1, Priority::Interactive, 0),
            ServeRequest::new(2, Priority::Interactive, bad, ExecState::new(), 0),
            request(3, Priority::Interactive, 0),
        ];
        let run = node.run(&rt, None, requests);
        assert_eq!(run.outcome(1).unwrap().status, ServeStatus::Completed);
        let o = run.outcome(2).unwrap();
        match &o.status {
            ServeStatus::Rejected {
                error: ServeError::InvalidPlan { plan, details },
            } => {
                assert_eq!(plan, "bad");
                assert!(
                    details.iter().any(|d| d.contains("SPEAR-E004")),
                    "{details:?}"
                );
            }
            other => panic!("expected admission rejection, got {other:?}"),
        }
        assert_eq!(o.service_us, 0, "rejected before any execution");
        assert_eq!(run.outcome(3).unwrap().status, ServeStatus::Completed);
        assert_eq!(run.report.interactive.rejected, 1);
    }

    #[test]
    fn admission_verifier_respects_preseeded_prompts() {
        // The same "missing key" plan is sound when the request's own
        // starting state carries the prompt: the verifier seeds from it.
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let plan = Arc::new(
            lower(&Pipeline::builder("pre").gen("a", "preexisting").build()).expect("lowers"),
        );
        let state = ExecState::new();
        state
            .prompts
            .define("preexisting", "seeded text", "test", RefinementMode::Manual);
        let run = node.run(
            &rt,
            None,
            vec![ServeRequest::new(1, Priority::Interactive, plan, state, 0)],
        );
        assert_eq!(run.outcome(1).unwrap().status, ServeStatus::Completed);
    }

    #[test]
    fn infeasible_deadlines_are_rejected_at_admission() {
        // Two GEN slots cost at least 200 virtual µs; a 1 µs deadline can
        // never be met, so the verifier sheds the request up front
        // (SPEAR-E005) instead of burning an LLM call to find out.
        let node = ServeNode::new(ServeConfig::default());
        let rt = runtime();
        let mut state = ExecState::new();
        state.context.set("q", "doomed question");
        let r = ServeRequest::new(1, Priority::Interactive, plan(2), state, 0).with_deadline_us(1);
        let run = node.run(&rt, None, vec![r]);
        match &run.outcome(1).unwrap().status {
            ServeStatus::Rejected {
                error: ServeError::InvalidPlan { details, .. },
            } => assert!(
                details.iter().any(|d| d.contains("SPEAR-E005")),
                "{details:?}"
            ),
            other => panic!("expected admission rejection, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_failures_are_contained() {
        // Runtime failures (as opposed to statically detectable defects)
        // still surface as Failed without poisoning neighbouring requests.
        let node = ServeNode::new(ServeConfig::default());
        let rt = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .agent(
                "boom",
                Arc::new(spear_core::agent::FnAgent(
                    |_: &spear_core::value::Value, _: &spear_core::context::Context| {
                        Err(SpearError::Agent {
                            agent: "boom".into(),
                            reason: "intentional test failure".into(),
                        })
                    },
                )),
            )
            .build();
        let failing = Arc::new(
            lower(
                &Pipeline::builder("failing")
                    .create_text("p", "payload", RefinementMode::Manual)
                    .delegate(
                        "boom",
                        spear_core::ops::PayloadSpec::PromptKey("p".into()),
                        "out",
                    )
                    .build(),
            )
            .expect("lowers"),
        );
        let requests = vec![
            request(1, Priority::Interactive, 0),
            ServeRequest::new(2, Priority::Interactive, failing, ExecState::new(), 0),
            request(3, Priority::Interactive, 0),
        ];
        let run = node.run(&rt, None, requests);
        assert_eq!(run.outcome(1).unwrap().status, ServeStatus::Completed);
        assert!(matches!(
            run.outcome(2).unwrap().status,
            ServeStatus::Failed { .. }
        ));
        assert_eq!(run.outcome(3).unwrap().status, ServeStatus::Completed);
        assert_eq!(run.report.interactive.failed, 1);
    }

    #[test]
    fn virtual_queueing_orders_lane_time() {
        // One lane: three simultaneous arrivals queue behind each other,
        // so finish times strictly increase and waits accumulate.
        let node = ServeNode::new(ServeConfig {
            lanes: 1,
            quantum: 8,
            affinity_routing: false,
            ..ServeConfig::default()
        });
        let rt = runtime();
        let requests: Vec<_> = (0..3)
            .map(|i| request(i, Priority::Interactive, 0))
            .collect();
        let run = node.run(&rt, None, requests);
        let finishes: Vec<u64> = run.outcomes.iter().map(|o| o.finish_us).collect();
        assert!(finishes[0] < finishes[1] && finishes[1] < finishes[2]);
        assert_eq!(run.outcomes[0].queue_wait_us, 0);
        assert!(run.outcomes[2].queue_wait_us > run.outcomes[1].queue_wait_us);
        assert_eq!(run.report.makespan_us, finishes[2]);
    }

    #[test]
    fn affinity_groups_share_lanes_and_owners_deterministically() {
        // Same plan (same affinity key) => same lane; report identical
        // across repeated runs of a fresh node.
        let config = ServeConfig {
            lanes: 4,
            ..ServeConfig::default()
        };
        let rt = runtime();
        let make = || {
            let shared = plan(1);
            (0..8)
                .map(|i| {
                    let mut state = ExecState::new();
                    state.context.set("q", format!("question {i}"));
                    ServeRequest::new(i, Priority::Interactive, Arc::clone(&shared), state, i * 5)
                })
                .collect::<Vec<_>>()
        };
        let a = ServeNode::new(config.clone()).run(&rt, None, make());
        let b = ServeNode::new(config).run(&rt, None, make());
        assert_eq!(a.report.trace_fingerprint, b.report.trace_fingerprint);
        assert_eq!(a.report.makespan_us, b.report.makespan_us);
    }
}
