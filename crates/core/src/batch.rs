//! Concurrent batch execution of independent pipeline instances.
//!
//! The paper's runtime (§6) executes one pipeline at a time; a
//! production-scale deployment runs *many* instances concurrently against
//! shared backends. [`BatchRunner`] is that executor: it fans N jobs — each
//! a pipeline plus its own [`ExecState`] — across a fixed pool of std
//! threads, every worker sharing the same [`Runtime`], and collects the
//! per-job outcomes in submission order.
//!
//! ## Determinism under any thread count
//!
//! The runner is built so that for a fixed workload and seed, every job's
//! [`ExecReport`] and [`crate::trace::Trace`] is **byte-identical whether
//! the pool has 1, 2, or 8 workers**:
//!
//! - jobs never share mutable state: each owns its `ExecState`;
//! - each job runs inside an execution scope ([`crate::scope`]) carrying a
//!   unique owner id, which owner-aware backends (e.g. the spear-llm
//!   prefix cache) use to keep per-pipeline visible state independent of
//!   cross-pipeline interleaving;
//! - jobs are assigned to workers by **static round-robin striping**
//!   (worker `w` of `W` runs jobs `w, w+W, w+2W, …`), not by a racy work
//!   queue, so the lane a job charges virtual time to is a pure function
//!   of `(job index, worker count)`.
//!
//! Worker threads are scoped (`std::thread::scope`), so the runner borrows
//! the runtime without requiring `'static` lifetimes or reference counting
//! at the call site.
//!
//! ## Failure containment
//!
//! A panicking job must not poison the batch: each job body runs under
//! `catch_unwind`, so a panic surfaces as
//! [`crate::error::SpearError::WorkerPanicked`] in that job's slot while
//! the rest of the lane keeps running. The spine itself is panic-free
//! (`clippy::unwrap_used` / `clippy::expect_used` are denied here, in
//! `exec/`, and in `runtime.rs`).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Result, SpearError};
use crate::pipeline::Pipeline;
use crate::plan::LoweredPlan;
use crate::runtime::{ExecReport, ExecState, Runtime};
use crate::scope;

/// One unit of batch work: a pipeline and the state it executes against.
#[derive(Debug)]
pub struct BatchJob {
    /// The pipeline to execute (shared across jobs via `Arc`).
    pub pipeline: Arc<Pipeline>,
    /// The job's private execution state (consumed, returned in the
    /// outcome).
    pub state: ExecState,
}

impl BatchJob {
    /// Convenience constructor.
    #[must_use]
    pub fn new(pipeline: Arc<Pipeline>, state: ExecState) -> Self {
        Self { pipeline, state }
    }
}

/// What one job produced: the report and the (mutated) state, including
/// its trace.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The execution report.
    pub report: ExecReport,
    /// The job's state after execution (trace, context, prompts).
    pub state: ExecState,
}

/// A batch job whose private [`ExecState`] can be taken out for execution
/// (the rest of the job — the plan — stays readable during the run).
trait HasState {
    fn take_state(&mut self) -> ExecState;
}

impl HasState for BatchJob {
    fn take_state(&mut self) -> ExecState {
        std::mem::take(&mut self.state)
    }
}

impl HasState for (Arc<LoweredPlan>, ExecState) {
    fn take_state(&mut self) -> ExecState {
        std::mem::take(&mut self.1)
    }
}

/// A batch job with explicit placement: which worker lane runs it and
/// which cache-owner group it charges its prefix-cache state to. Built by
/// schedulers (e.g. `spear-serve`) that route jobs for cache affinity
/// instead of round-robin striping.
#[derive(Debug)]
pub struct AssignedJob {
    /// Worker lane (wraps modulo the runner's worker count). All jobs of
    /// one owner group must share a lane for deterministic cache reuse.
    pub lane: usize,
    /// Cache-owner id (see [`crate::scope`]). Jobs sharing an owner see
    /// each other's prefix-cache insertions.
    pub owner: u64,
    /// The lowered plan to execute.
    pub plan: Arc<LoweredPlan>,
    /// A pre-compiled program for `plan`, when the scheduler already
    /// compiled (and possibly specialized) it; `None` falls back to
    /// compiling inside [`crate::runtime::Runtime::execute_lowered`].
    pub program: Option<Arc<crate::vm::Program>>,
    /// The job's private execution state.
    pub state: ExecState,
}

/// Executes batches of independent pipeline instances on a worker pool.
#[derive(Debug)]
pub struct BatchRunner {
    workers: usize,
    next_owner: AtomicU64,
}

impl BatchRunner {
    /// A runner with `workers` threads (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            next_owner: AtomicU64::new(1),
        }
    }

    /// Worker-pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute `jobs` against `runtime`; outcomes come back in submission
    /// order, each `Err` slot holding the corresponding job's failure.
    ///
    /// Owner ids are allocated per job and are unique across successive
    /// `run` calls on the same runner, so two batches never alias each
    /// other's owner-private backend state.
    pub fn run(&self, runtime: &Runtime, jobs: Vec<BatchJob>) -> Vec<Result<BatchOutcome>> {
        self.run_jobs(jobs, |job, state| runtime.execute(&job.pipeline, state))
    }

    /// Execute one lowered plan over many per-job states — the single-spine
    /// analogue of [`BatchRunner::run_states`], used by the optimizer's
    /// plan executor. Owner/lane assignment and outcome ordering are
    /// identical to [`BatchRunner::run`].
    pub fn run_lowered(
        &self,
        runtime: &Runtime,
        plan: &Arc<LoweredPlan>,
        states: Vec<ExecState>,
    ) -> Vec<Result<BatchOutcome>> {
        // Compile once for the whole batch instead of once per job. A plan
        // that fails to compile (i.e. fails verification) falls back to
        // per-job `execute_lowered`, which reproduces the same
        // `InvalidPlan` error in every slot.
        let program = crate::vm::compile(plan).ok().map(Arc::new);
        let jobs: Vec<(Arc<LoweredPlan>, ExecState)> = states
            .into_iter()
            .map(|state| (Arc::clone(plan), state))
            .collect();
        self.run_jobs(jobs, |(plan, _), state| match &program {
            Some(p) => runtime.execute_program(p, state),
            None => runtime.execute_lowered(plan, state),
        })
    }

    /// Shared batch engine: statically stripe `jobs` across the worker
    /// pool, run each inside its own execution scope, and collect outcomes
    /// in submission order.
    fn run_jobs<J, F>(&self, jobs: Vec<J>, exec: F) -> Vec<Result<BatchOutcome>>
    where
        J: Send + HasState,
        F: Fn(&J, &mut ExecState) -> Result<ExecReport> + Sync,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let owner_base = self.next_owner.fetch_add(n as u64, Ordering::Relaxed);
        let workers = self.workers.min(n);

        // Hand each worker its statically striped slice of jobs. Jobs are
        // moved out of the input vector into per-worker lists up front so
        // no locking is needed during execution.
        let mut per_worker: Vec<Vec<(usize, J)>> = (0..workers).map(|_| Vec::new()).collect();
        for (index, job) in jobs.into_iter().enumerate() {
            per_worker[index % workers].push((index, job));
        }

        let mut slots: Vec<Option<Result<BatchOutcome>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let exec = &exec;
            let handles: Vec<_> = per_worker
                .into_iter()
                .enumerate()
                .map(|(lane, assigned)| {
                    let indices: Vec<usize> = assigned.iter().map(|(i, _)| *i).collect();
                    let handle = s.spawn(move || {
                        let mut produced = Vec::with_capacity(assigned.len());
                        for (index, mut job) in assigned {
                            let owner = owner_base + index as u64;
                            let _scope = scope::enter(owner, lane);
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                let mut state = job.take_state();
                                exec(&job, &mut state).map(|report| BatchOutcome { report, state })
                            }))
                            .unwrap_or(Err(SpearError::WorkerPanicked { lane }));
                            produced.push((index, result));
                        }
                        produced
                    });
                    (lane, indices, handle)
                })
                .collect();
            collect_outcomes(&mut slots, handles);
        });
        seal_slots(slots)
    }

    /// Execute lowered-plan jobs with **caller-chosen lane and owner
    /// placement** — the serving layer's entry point for cache-affinity
    /// routing.
    ///
    /// Where [`BatchRunner::run`] stripes jobs round-robin and allocates a
    /// fresh owner per job (full isolation), `run_assigned` lets the caller
    /// pin each job to a worker lane and cache-owner group: jobs that share
    /// an owner *and* a lane execute sequentially in submission order on
    /// one thread, so they observe each other's prefix-cache insertions
    /// deterministically — the mechanism behind affinity routing
    /// (`spear-serve`). The caller owns the invariant that same-owner jobs
    /// share a lane; violating it forfeits determinism, not safety.
    ///
    /// One scoped thread is spawned per distinct lane in use (never more
    /// than the runner's worker count; lanes wrap modulo it). Outcomes come
    /// back in submission order. Empty input returns immediately without
    /// spawning any threads.
    pub fn run_assigned(
        &self,
        runtime: &Runtime,
        jobs: Vec<AssignedJob>,
    ) -> Vec<Result<BatchOutcome>> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let lanes = self.workers;
        let mut per_lane: Vec<Vec<(usize, AssignedJob)>> = (0..lanes).map(|_| Vec::new()).collect();
        for (index, job) in jobs.into_iter().enumerate() {
            per_lane[job.lane % lanes].push((index, job));
        }

        let mut slots: Vec<Option<Result<BatchOutcome>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = per_lane
                .into_iter()
                .enumerate()
                .filter(|(_, assigned)| !assigned.is_empty())
                .map(|(lane, assigned)| {
                    let indices: Vec<usize> = assigned.iter().map(|(i, _)| *i).collect();
                    let handle = s.spawn(move || {
                        let mut produced = Vec::with_capacity(assigned.len());
                        for (index, mut job) in assigned {
                            let _scope = scope::enter(job.owner, lane);
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                let mut state = std::mem::take(&mut job.state);
                                match job.program.as_deref() {
                                    Some(program) => runtime.execute_program(program, &mut state),
                                    None => runtime.execute_lowered(&job.plan, &mut state),
                                }
                                .map(|report| BatchOutcome { report, state })
                            }))
                            .unwrap_or(Err(SpearError::WorkerPanicked { lane }));
                            produced.push((index, result));
                        }
                        produced
                    });
                    (lane, indices, handle)
                })
                .collect();
            collect_outcomes(&mut slots, handles);
        });
        seal_slots(slots)
    }

    /// Common case: run the *same* pipeline over many per-job states.
    pub fn run_states(
        &self,
        runtime: &Runtime,
        pipeline: &Arc<Pipeline>,
        states: Vec<ExecState>,
    ) -> Vec<Result<BatchOutcome>> {
        self.run(
            runtime,
            states
                .into_iter()
                .map(|state| BatchJob::new(Arc::clone(pipeline), state))
                .collect(),
        )
    }
}

/// One spawned worker: its lane, the job indices it owns, and its handle.
type WorkerHandle<'scope> = (
    usize,
    Vec<usize>,
    std::thread::ScopedJoinHandle<'scope, Vec<(usize, Result<BatchOutcome>)>>,
);

/// Join every worker and place its results; a worker whose thread died
/// despite per-job `catch_unwind` marks all of its assigned slots with
/// [`SpearError::WorkerPanicked`] instead of poisoning the batch.
fn collect_outcomes(slots: &mut [Option<Result<BatchOutcome>>], handles: Vec<WorkerHandle<'_>>) {
    for (lane, indices, handle) in handles {
        match handle.join() {
            Ok(produced) => {
                for (index, result) in produced {
                    slots[index] = Some(result);
                }
            }
            Err(_) => {
                for index in indices {
                    slots[index] = Some(Err(SpearError::WorkerPanicked { lane }));
                }
            }
        }
    }
}

/// Turn the slot table into the final outcome vector. Every index is
/// assigned to exactly one worker, so an unfilled slot is a bug in this
/// module — reported as a typed error, not a panic.
fn seal_slots(slots: Vec<Option<Result<BatchOutcome>>>) -> Vec<Result<BatchOutcome>> {
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| Err(SpearError::Internal("job slot never filled".into())))
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::llm::EchoLlm;
    use crate::pipeline::Pipeline;
    use crate::value::Value;

    fn runtime() -> Runtime {
        Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
    }

    fn pipeline() -> Arc<Pipeline> {
        Arc::new(
            Pipeline::builder("batch_test")
                .create_text("p", "Answer briefly: {{ctx:q}}", RefinementMode::Manual)
                .gen("a", "p")
                .build(),
        )
    }

    fn state(i: usize) -> ExecState {
        let mut st = ExecState::new();
        st.context.set("q", format!("question number {i}"));
        st
    }

    #[test]
    fn outcomes_come_back_in_submission_order() {
        let rt = runtime();
        let p = pipeline();
        let runner = BatchRunner::new(4);
        let outcomes = runner.run_states(&rt, &p, (0..13).map(state).collect());
        assert_eq!(outcomes.len(), 13);
        for (i, o) in outcomes.iter().enumerate() {
            let o = o.as_ref().expect("job succeeds");
            let answer = o.state.context.get("a").expect("generated");
            let Value::Str(text) = answer else {
                panic!("string answer")
            };
            assert!(
                text.contains(&format!("question number {i}")),
                "slot {i} holds its own job's output: {text}"
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run_with = |workers: usize| -> Vec<String> {
            let rt = runtime();
            let p = pipeline();
            let runner = BatchRunner::new(workers);
            runner
                .run_states(&rt, &p, (0..10).map(state).collect())
                .into_iter()
                .map(|o| {
                    let o = o.expect("job succeeds");
                    format!(
                        "{:?}|{}",
                        o.report,
                        o.state.trace.to_jsonl().expect("serializable")
                    )
                })
                .collect()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2));
        assert_eq!(one, run_with(8));
    }

    #[test]
    fn failures_stay_in_their_slot() {
        let rt = runtime();
        let good = pipeline();
        let bad = Arc::new(Pipeline::builder("bad").gen("a", "missing_prompt").build());
        let runner = BatchRunner::new(3);
        let jobs = vec![
            BatchJob::new(Arc::clone(&good), state(0)),
            BatchJob::new(bad, state(1)),
            BatchJob::new(good, state(2)),
        ];
        let outcomes = runner.run(&rt, jobs);
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err());
        assert!(outcomes[2].is_ok());
    }

    #[test]
    fn panicking_jobs_are_contained_to_their_slot() {
        let rt = Runtime::builder()
            .llm(Arc::new(EchoLlm::default()))
            .agent(
                "bomb",
                Arc::new(crate::agent::FnAgent(
                    |_: &Value, _: &crate::context::Context| -> Result<Value> {
                        panic!("intentional test panic")
                    },
                )),
            )
            .build();
        let good = pipeline();
        let bad = Arc::new(
            Pipeline::builder("bomb")
                .delegate("bomb", crate::ops::PayloadSpec::Lit(Value::Null), "out")
                .build(),
        );
        let runner = BatchRunner::new(2);
        let jobs = vec![
            BatchJob::new(Arc::clone(&good), state(0)),
            BatchJob::new(bad, state(1)),
            BatchJob::new(good, state(2)),
        ];
        // Silence the default panic hook for the intentional panic.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcomes = runner.run(&rt, jobs);
        std::panic::set_hook(hook);
        assert!(outcomes[0].is_ok());
        assert!(matches!(
            outcomes[1].as_ref().unwrap_err(),
            SpearError::WorkerPanicked { .. }
        ));
        assert!(outcomes[2].is_ok(), "later jobs on the lane keep running");
    }

    #[test]
    fn empty_batch_is_empty() {
        let rt = runtime();
        let runner = BatchRunner::new(8);
        assert!(runner.run(&rt, Vec::new()).is_empty());
    }

    #[test]
    fn empty_input_does_no_work_on_any_entry_point() {
        // Regression: an empty submission must return an empty result
        // before any owner allocation or thread spawn. The owner counter
        // staying untouched is the observable witness that the early
        // return fired.
        let rt = runtime();
        let runner = BatchRunner::new(8);
        let before = runner.next_owner.load(Ordering::Relaxed);
        assert!(runner.run(&rt, Vec::new()).is_empty());
        assert!(runner.run_states(&rt, &pipeline(), Vec::new()).is_empty());
        let plan = Arc::new(crate::plan::lower(&pipeline()).expect("lowers"));
        assert!(runner.run_lowered(&rt, &plan, Vec::new()).is_empty());
        assert!(runner.run_assigned(&rt, Vec::new()).is_empty());
        assert_eq!(
            runner.next_owner.load(Ordering::Relaxed),
            before,
            "empty batches must not consume owner ids"
        );
    }

    #[test]
    fn assigned_jobs_share_lanes_and_keep_submission_order() {
        let rt = runtime();
        let plan = Arc::new(crate::plan::lower(&pipeline()).expect("lowers"));
        let runner = BatchRunner::new(4);
        let jobs: Vec<AssignedJob> = (0..9)
            .map(|i| AssignedJob {
                lane: i % 3,
                owner: 1000 + (i % 3) as u64,
                plan: Arc::clone(&plan),
                program: None,
                state: state(i),
            })
            .collect();
        let outcomes = runner.run_assigned(&rt, jobs);
        assert_eq!(outcomes.len(), 9);
        for (i, o) in outcomes.iter().enumerate() {
            let o = o.as_ref().expect("job succeeds");
            let Value::Str(text) = o.state.context.get("a").expect("generated") else {
                panic!("string answer")
            };
            assert!(
                text.contains(&format!("question number {i}")),
                "slot {i} holds its own job's output: {text}"
            );
        }
    }

    #[test]
    fn assigned_lanes_wrap_modulo_worker_count() {
        let rt = runtime();
        let plan = Arc::new(crate::plan::lower(&pipeline()).expect("lowers"));
        let runner = BatchRunner::new(2);
        let jobs: Vec<AssignedJob> = (0..4)
            .map(|i| AssignedJob {
                lane: 7, // all wrap onto lane 7 % 2 == 1
                owner: 50,
                plan: Arc::clone(&plan),
                program: None,
                state: state(i),
            })
            .collect();
        let outcomes = runner.run_assigned(&rt, jobs);
        assert!(outcomes.iter().all(std::result::Result::is_ok));
    }

    #[test]
    fn owners_are_unique_across_runs() {
        let runner = BatchRunner::new(2);
        let rt = runtime();
        let p = pipeline();
        runner.run_states(&rt, &p, (0..5).map(state).collect());
        let before = runner.next_owner.load(Ordering::Relaxed);
        runner.run_states(&rt, &p, (0..5).map(state).collect());
        assert_eq!(runner.next_owner.load(Ordering::Relaxed), before + 5);
    }
}
