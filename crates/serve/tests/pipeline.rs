//! The serving pipeline's shared stages: both timing models admit through
//! the same stage, verification verdicts belong to one run, and harness
//! contracts are checked before any work is done.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use spear_core::agent::FnAgent;
use spear_core::context::Context;
use spear_core::history::RefinementMode;
use spear_core::llm::{EchoLlm, LlmClient};
use spear_core::ops::PayloadSpec;
use spear_core::pipeline::Pipeline;
use spear_core::plan::{lower, LoweredPlan};
use spear_core::runtime::{ExecState, Runtime};
use spear_core::value::Value;
use spear_llm::{ModelProfile, SimLlm};
use spear_serve::prelude::*;

fn answer_plan() -> Arc<LoweredPlan> {
    let pipeline = Pipeline::builder("answer")
        .create_text("p", "Answer briefly: {{ctx:q}}", RefinementMode::Manual)
        .gen("a", "p")
        .build();
    Arc::new(lower(&pipeline).expect("lowers"))
}

/// GENs from a prompt key nothing creates: rejected by the verifier.
fn undefined_prompt_plan() -> Arc<LoweredPlan> {
    let pipeline = Pipeline::builder("bad").gen("a", "missing_prompt").build();
    Arc::new(lower(&pipeline).expect("lowers"))
}

/// Delegates to agent `helper`: sound only on a runtime that registers it.
fn helper_plan() -> Arc<LoweredPlan> {
    let pipeline = Pipeline::builder("delegating")
        .create_text("p", "payload {{ctx:q}}", RefinementMode::Manual)
        .delegate("helper", PayloadSpec::PromptKey("p".into()), "out")
        .build();
    Arc::new(lower(&pipeline).expect("lowers"))
}

fn request(id: u64, priority: Priority, plan: &Arc<LoweredPlan>, arrival_us: u64) -> ServeRequest {
    let mut state = ExecState::new();
    state.context.set("q", format!("question {id}"));
    ServeRequest::new(id, priority, Arc::clone(plan), state, arrival_us)
}

fn sim_runtime() -> (Arc<SimLlm>, Runtime) {
    let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
    let runtime = Runtime::builder()
        .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
        .build();
    (engine, runtime)
}

#[test]
fn both_timing_models_share_admission() {
    // A tight token bucket sheds part of the stream and an invalid plan is
    // rejected by the verifier; neither decision may depend on the timing
    // model. The pool is roomy, and the depth limit never binds on lanes.
    let good = answer_plan();
    let bad = undefined_prompt_plan();
    let stream = || -> Vec<ServeRequest> {
        (0..96u64)
            .map(|i| {
                let priority = if i % 3 == 0 {
                    Priority::Batch
                } else {
                    Priority::Interactive
                };
                let plan = if i % 7 == 3 { &bad } else { &good };
                request(i, priority, plan, i * 60).with_est_tokens(100 + (i % 5) * 50)
            })
            .collect()
    };
    let serve = |pressure: Option<KvPressureConfig>| {
        let (engine, runtime) = sim_runtime();
        let node = ServeNode::new(ServeConfig {
            lanes: 2,
            admission: AdmissionConfig {
                bucket_capacity: 2000,
                refill_per_us: 1.0,
                ..AdmissionConfig::default()
            },
            pressure,
            ..ServeConfig::default()
        });
        node.run(&runtime, Some(&engine), stream())
    };
    let lanes = serve(None);
    let kv = serve(Some(KvPressureConfig::default()));

    let rejected = |run: &ServeRun| -> Vec<(u64, ServeError)> {
        run.outcomes
            .iter()
            .filter_map(|o| match &o.status {
                ServeStatus::Rejected { error } => Some((o.id, error.clone())),
                _ => None,
            })
            .collect()
    };
    let (on_lanes, on_kv) = (rejected(&lanes), rejected(&kv));
    let shed = on_lanes
        .iter()
        .filter(|(_, e)| matches!(e, ServeError::Overloaded { .. }))
        .count();
    let invalid = on_lanes.len() - shed;
    assert!(shed > 0 && invalid > 0, "{shed} shed, {invalid} invalid");
    assert_eq!(on_lanes.len(), on_kv.len());
    for ((id_l, err_l), (id_k, err_k)) in on_lanes.iter().zip(&on_kv) {
        assert_eq!(id_l, id_k);
        match (err_l, err_k) {
            // Queue depth is the only admission input the timing models
            // see differently: under pressure nothing ever waits in the
            // admission queue, so the reported depth is 0.
            (
                ServeError::Overloaded {
                    priority: p_l,
                    retry_after_us: r_l,
                    ..
                },
                ServeError::Overloaded {
                    priority: p_k,
                    retry_after_us: r_k,
                    queue_depth,
                },
            ) => {
                assert_eq!((p_l, r_l), (p_k, r_k), "request {id_l}");
                assert_eq!(*queue_depth, 0, "request {id_l}");
            }
            _ => assert_eq!(err_l, err_k, "request {id_l}"),
        }
    }
    for (l, k) in [
        (&lanes.report.interactive, &kv.report.interactive),
        (&lanes.report.batch, &kv.report.batch),
    ] {
        assert_eq!(
            (l.submitted, l.admitted, l.rejected),
            (k.submitted, k.admitted, k.rejected)
        );
    }
    assert_eq!(lanes.report.trace_fingerprint, kv.report.trace_fingerprint);
}

#[test]
fn concurrent_runs_keep_their_own_verification_verdicts() {
    // Two runtimes differ only in whether agent `helper` is registered, so
    // `helper_plan` verifies on one and is rejected on the other. Runs on
    // one node from two threads must each match their solo run: no run may
    // read a verdict computed against the other's runtime.
    let with_helper = Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .agent(
            "helper",
            Arc::new(FnAgent(|payload: &Value, _: &Context| Ok(payload.clone()))),
        )
        .build();
    let without_helper = Runtime::builder().llm(Arc::new(EchoLlm::default())).build();
    let (answer, helper) = (answer_plan(), helper_plan());
    let workload = || -> Vec<ServeRequest> {
        (0..24u64)
            .map(|i| {
                let plan = if i % 2 == 0 { &helper } else { &answer };
                request(i, Priority::Interactive, plan, i * 10)
            })
            .collect()
    };
    let node = ServeNode::new(ServeConfig::default());
    let solo_with = node.run(&with_helper, None, workload());
    let solo_without = node.run(&without_helper, None, workload());
    assert_eq!(solo_with.outcome(0).unwrap().status, ServeStatus::Completed);
    assert!(matches!(
        solo_without.outcome(0).unwrap().status,
        ServeStatus::Rejected {
            error: ServeError::InvalidPlan { .. }
        }
    ));

    for _ in 0..8 {
        let (with, without) = std::thread::scope(|s| {
            let with = s.spawn(|| node.run(&with_helper, None, workload()));
            let without = s.spawn(|| node.run(&without_helper, None, workload()));
            (with.join().unwrap(), without.join().unwrap())
        });
        assert_eq!(with.outcomes, solo_with.outcomes);
        assert_eq!(without.outcomes, solo_without.outcomes);
        assert_eq!(
            with.report.compile.verify_memo_hits,
            solo_with.report.compile.verify_memo_hits
        );
        assert_eq!(
            without.report.compile.verify_memo_hits,
            solo_without.report.compile.verify_memo_hits
        );
    }
}

#[test]
fn duplicate_ids_panic_before_any_work() {
    // View-derived prompts are structured, so every GEN that runs
    // consults the engine's prefix cache and shows up in `lookups`.
    let mut workload = generate(&LoadGenConfig {
        requests: 8,
        ..LoadGenConfig::default()
    });
    workload.requests[5].id = workload.requests[2].id;
    let engine = Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct()));
    let runtime = Runtime::builder()
        .llm(Arc::clone(&engine) as Arc<dyn LlmClient>)
        .views(workload.views.clone())
        .build();
    let node = ServeNode::new(ServeConfig::default());
    let panic = catch_unwind(AssertUnwindSafe(|| {
        node.run(&runtime, Some(&engine), workload.requests)
    }))
    .expect_err("duplicate ids are a harness bug");
    let message = panic
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(message.contains("request ids must be unique"), "{message}");
    assert_eq!(
        engine.cache_stats().lookups,
        0,
        "nothing executed against the engine"
    );
}
