//! Differential testing of the executors: random small pipelines must
//! produce **byte-identical** traces and reports whether they run
//! through the reference tree walk (`Runtime::execute_tree`), the
//! compiled bytecode VM (`Runtime::execute_lowered`), or the *optimized*
//! bytecode VM (`vm::optimize` + `Runtime::execute_program`) — including
//! pipelines that fail mid-run, whose error unwind (one `Error` trace
//! event per enclosing CHECK) the VM replays from its baked-in frames;
//! pipelines aborted mid-run by an operator budget; and pipelines entered
//! with an already-cancelled token. A second property pins batch
//! determinism: running the lowered plan on a [`BatchRunner`] returns the
//! same per-job bytes at 1, 4, and 8 workers. Every compiled program in
//! the corpus must also pass translation validation
//! (`analysis::validate_compile`) against its source plan.

use std::sync::Arc;

use proptest::prelude::*;

use spear_core::prelude::*;

/// A generator-friendly pipeline script; `apply` maps it onto the builder.
/// The grammar deliberately includes sometimes-failing ops (GEN on a
/// possibly-missing key, MERGE with a possibly-undefined source) so error
/// paths are exercised, and nested CHECKs so unwind frames stack.
#[derive(Debug, Clone)]
enum Instr {
    CreateText(u8, String),
    Expand(u8, String),
    Gen(u8, u8),
    GenInline(u8, String),
    Merge(u8, u8, u8),
    Check(Cond, Vec<Instr>, Vec<Instr>),
}

fn key(k: u8) -> String {
    format!("p{k}")
}

fn apply(mut b: PipelineBuilder, instrs: &[Instr]) -> PipelineBuilder {
    for instr in instrs {
        b = match instr {
            Instr::CreateText(k, text) => b.create_text(&key(*k), text, RefinementMode::Manual),
            Instr::Expand(k, text) => b.expand(&key(*k), text),
            Instr::Gen(label, k) => b.gen(&format!("g{label}"), &key(*k)),
            Instr::GenInline(label, text) => b.gen_with(
                &format!("g{label}"),
                PromptRef::Inline(format!("{text} {{{{ctx:tweet}}}}")),
                GenOptions::default(),
            ),
            Instr::Merge(l, r, into) => b.merge(
                &key(*l),
                &key(*r),
                &key(*into),
                MergePolicy::Concat {
                    separator: " / ".into(),
                },
            ),
            Instr::Check(cond, then, els) => {
                if els.is_empty() {
                    b.check(cond.clone(), |b| apply(b, then))
                } else {
                    b.check_else(cond.clone(), |b| apply(b, then), |b| apply(b, els))
                }
            }
        };
    }
    b
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Always),
        Just(Cond::Never),
        Just(Cond::low_confidence(0.7)),
        (0u8..4).prop_map(|k| Cond::InContext(format!("g{k}"))),
        (0u8..4).prop_map(|k| Cond::Truthy(Operand::Ctx(format!("g{k}")))),
    ]
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    let leaf = prop_oneof![
        ((0u8..4), "[a-z ]{1,12}").prop_map(|(k, t)| Instr::CreateText(k, t)),
        ((0u8..4), "[a-z ]{1,8}").prop_map(|(k, t)| Instr::Expand(k, t)),
        ((0u8..4), (0u8..4)).prop_map(|(l, k)| Instr::Gen(l, k)),
        ((0u8..4), "[a-z ]{1,8}").prop_map(|(l, t)| Instr::GenInline(l, t)),
        ((0u8..4), (0u8..4), (0u8..4)).prop_map(|(l, r, i)| Instr::Merge(l, r, i)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        (
            cond_strategy(),
            proptest::collection::vec(inner.clone(), 0..3),
            proptest::collection::vec(inner, 0..2),
        )
            .prop_map(|(c, t, e)| Instr::Check(c, t, e))
    })
}

fn pipeline(instrs: &[Instr]) -> Pipeline {
    apply(Pipeline::builder("prop"), instrs).build()
}

fn runtime() -> Runtime {
    Runtime::builder().llm(Arc::new(EchoLlm::default())).build()
}

fn runtime_with_budget(max_ops: u64) -> Runtime {
    Runtime::builder()
        .llm(Arc::new(EchoLlm::default()))
        .config(RuntimeConfig {
            max_ops,
            ..RuntimeConfig::default()
        })
        .build()
}

fn seeded_state(tweet: &str) -> ExecState {
    let mut state = ExecState::new();
    state.context.set("tweet", tweet.to_string());
    state.prompts.define(
        "p0",
        "base prompt {{ctx:tweet}}",
        "seed",
        RefinementMode::Manual,
    );
    state
}

/// Everything observable about one execution, rendered to bytes.
fn fingerprint(result: &Result<ExecReport>, state: &ExecState) -> String {
    format!(
        "{result:?}|{}|{}|{}",
        state.trace.to_jsonl().expect("trace serializes"),
        state.step,
        state
            .metadata
            .get("confidence")
            .map(|v| format!("{v:?}"))
            .unwrap_or_default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tree walk, bytecode VM, and optimized VM agree byte-for-byte on
    /// every random pipeline — reports, traces (success and error
    /// unwinds), and state.
    #[test]
    fn tree_and_vm_traces_are_byte_identical(
        instrs in proptest::collection::vec(instr_strategy(), 0..6),
        tweet in "[a-z ]{0,16}",
    ) {
        let p = pipeline(&instrs);
        let lowered = lower(&p).unwrap();
        let rt = runtime();

        let mut tree_state = seeded_state(&tweet);
        let mut vm_state = tree_state.deep_clone();
        let mut opt_state = tree_state.deep_clone();
        let tree_result = rt.execute_tree(&p, &mut tree_state);
        let vm_result = rt.execute_lowered(&lowered, &mut vm_state);

        // Translation validation holds over the whole random corpus, and
        // the verified-optimized program replays the same observable run.
        let program = spear_core::compile(&lowered).expect("builder plans compile");
        if let Err(failures) = spear_core::analysis::validate_compile(&lowered, &program) {
            prop_assert!(false, "TV failed: {:?}, pipeline: {:?}", failures, p);
        }
        let optimized = spear_core::optimize(&program).unwrap_or(program);
        let opt_result = rt.execute_program(&optimized, &mut opt_state);

        let tree = fingerprint(&tree_result, &tree_state);
        prop_assert_eq!(
            &tree,
            &fingerprint(&vm_result, &vm_state),
            "tree vs VM, pipeline: {:?}", p
        );
        prop_assert_eq!(
            &tree,
            &fingerprint(&opt_result, &opt_state),
            "tree vs optimized VM, pipeline: {:?}", p
        );
    }

    /// The three spines also agree when the run is cut short from outside:
    /// a tight operator budget aborts mid-run (same slot, same unwind
    /// frames), and an already-cancelled token aborts at the first gate.
    #[test]
    fn budget_aborts_and_cancellation_unwind_identically(
        instrs in proptest::collection::vec(instr_strategy(), 1..6),
        tweet in "[a-z ]{0,12}",
        max_ops in 1u64..6,
        cancelled in any::<bool>(),
    ) {
        let p = pipeline(&instrs);
        let lowered = lower(&p).unwrap();
        let rt = runtime_with_budget(max_ops);

        let mut tree_state = seeded_state(&tweet);
        if cancelled {
            let token = CancelToken::new("admission reset");
            token.cancel();
            tree_state.cancel = Some(token);
        }
        let mut vm_state = tree_state.deep_clone();
        let mut opt_state = tree_state.deep_clone();
        let tree_result = rt.execute_tree(&p, &mut tree_state);
        let vm_result = rt.execute_lowered(&lowered, &mut vm_state);
        let program = spear_core::compile(&lowered).expect("builder plans compile");
        let optimized = spear_core::optimize(&program).unwrap_or(program);
        let opt_result = rt.execute_program(&optimized, &mut opt_state);

        let tree = fingerprint(&tree_result, &tree_state);
        prop_assert_eq!(
            &tree,
            &fingerprint(&vm_result, &vm_state),
            "tree vs VM, max_ops={}, cancelled={}, pipeline: {:?}",
            max_ops, cancelled, p
        );
        prop_assert_eq!(
            &tree,
            &fingerprint(&opt_result, &opt_state),
            "tree vs optimized VM, max_ops={}, cancelled={}, pipeline: {:?}",
            max_ops, cancelled, p
        );
    }

    /// A batch of lowered-plan jobs returns identical per-job bytes under
    /// 1, 4, and 8 workers, and each job matches a solo tree walk.
    #[test]
    fn batch_execution_is_worker_count_invariant(
        instrs in proptest::collection::vec(instr_strategy(), 0..5),
    ) {
        let p = pipeline(&instrs);
        let lowered = Arc::new(lower(&p).unwrap());
        let tweets: Vec<String> = (0..6).map(|i| format!("tweet number {i}")).collect();

        let run = |workers: usize| -> Vec<String> {
            let rt = runtime();
            let states = tweets.iter().map(|t| seeded_state(t)).collect();
            BatchRunner::new(workers)
                .run_lowered(&rt, &lowered, states)
                .into_iter()
                .map(|slot| match slot {
                    Ok(outcome) => fingerprint(&Ok(outcome.report), &outcome.state),
                    Err(e) => format!("err:{e:?}"),
                })
                .collect()
        };
        let solo: Vec<String> = tweets
            .iter()
            .map(|t| {
                let rt = runtime();
                let mut state = seeded_state(t);
                let result = rt.execute_tree(&p, &mut state);
                match result {
                    Ok(report) => fingerprint(&Ok(report), &state),
                    Err(e) => format!("err:{e:?}"),
                }
            })
            .collect();
        // The verified-optimized program is a third independent spine:
        // its solo runs must match the batch bytes at every worker count.
        let program = spear_core::compile(&lowered).expect("builder plans compile");
        let optimized = spear_core::optimize(&program).unwrap_or(program);
        let solo_opt: Vec<String> = tweets
            .iter()
            .map(|t| {
                let rt = runtime();
                let mut state = seeded_state(t);
                let result = rt.execute_program(&optimized, &mut state);
                match result {
                    Ok(report) => fingerprint(&Ok(report), &state),
                    Err(e) => format!("err:{e:?}"),
                }
            })
            .collect();

        let one = run(1);
        prop_assert_eq!(&one, &run(4), "worker count 4 changed results");
        prop_assert_eq!(&one, &run(8), "worker count 8 changed results");
        prop_assert_eq!(&one, &solo, "batch diverges from solo tree walk");
        prop_assert_eq!(&one, &solo_opt, "batch diverges from optimized VM");
    }
}
