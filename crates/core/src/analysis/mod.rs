//! Static analysis over the lowered plan IR.
//!
//! Pipelines are data, so plans can be checked like query plans before a
//! single token is spent. This module is the IR-level counterpart of the
//! tree checker in [`crate::validate`] — and since PR 2 unified execution
//! behind [`crate::plan::LoweredPlan`], it is the checker that sees what
//! actually runs: optimizer-lowered physical plans with free `Jump`s,
//! DELEGATE-based filters, and fused GEN stages included.
//!
//! The pieces:
//!
//! - [`cfg`] builds an explicit control-flow graph from the slot program,
//!   rejecting malformed targets (out-of-bounds, the `usize::MAX`
//!   lowering placeholder) before anything else runs;
//! - [`dataflow`] is a small worklist fixpoint engine over that CFG;
//! - [`passes`] holds the built-in analyses — reachability/termination,
//!   prompt-key def-use (the [`crate::validate::Validator`] semantics,
//!   optimistic across CHECK branches), resource feasibility against a
//!   deadline/token budget, and affinity-key consistency across fused
//!   stages — plus the [`LintPass`] trait future passes implement;
//! - [`lints`] is the registry of stable diagnostic codes
//!   (`SPEAR-E001`…) every pass draws from;
//! - [`absint`] re-runs the analysis below the compiler: an abstract
//!   interpreter over compiled [`crate::vm::Program`] bytecode deriving
//!   sound interval bounds (tokens, LLM calls, latency floor, unwind
//!   depth, KV footprint), plus the opt-in [`BytecodePass`] surfacing
//!   `SPEAR-W004`/`SPEAR-W005`;
//! - [`tv`] is translation validation: symbolic equivalence checks of
//!   `vm::compile` output against its source plan, and of optimized
//!   bytecode against the original — the proof obligation gating
//!   [`crate::vm::optimize`].
//!
//! [`Verifier`] ties them together; [`crate::runtime::Runtime::execute`]
//! and spear-serve admission run it as a default-on gate that rejects
//! with [`crate::error::SpearError::InvalidPlan`].

pub mod absint;
pub mod cfg;
pub mod dataflow;
pub mod lints;
pub mod passes;
pub mod tv;

use std::collections::BTreeSet;

use crate::plan::LoweredPlan;
use crate::runtime::Runtime;

pub use absint::{analyze, static_cond, BytecodePass, Interval, ProgramBounds, SlotBounds};
pub use cfg::Cfg;
pub use dataflow::{fixpoint, Analysis};
pub use lints::{lint, Diagnostic, Lint, Severity, REGISTRY};
pub use passes::{
    AffinityPass, DefUsePass, LintPass, PassContext, ReachabilityPass, ResourceModel, ResourcePass,
};
pub use tv::{validate_compile, validate_optimized, TvFailure};

/// The structural checks that make a slot program safe to compile at all:
/// every target in bounds, no lowering placeholders, no backward jumps
/// (the termination argument). This is the subset [`crate::vm::compile`]
/// enforces, fail-closed, before emitting any code — cheap,
/// runtime-independent, and never triggered by plans produced by
/// [`crate::plan::lower`].
#[must_use]
pub fn verify_structural(plan: &LoweredPlan) -> Vec<Diagnostic> {
    match Cfg::build(plan) {
        Err(diags) => diags,
        Ok(cfg) => cfg::termination_diagnostics(plan, &cfg),
    }
}

/// The static verifier: CFG construction plus a configurable stack of
/// lint passes over it.
///
/// ```
/// use spear_core::analysis::Verifier;
/// use spear_core::pipeline::Pipeline;
/// use spear_core::plan::lower;
///
/// let plan = lower(
///     &Pipeline::builder("p")
///         .create_text("p", "base", spear_core::history::RefinementMode::Manual)
///         .gen("a", "p")
///         .build(),
/// )
/// .unwrap();
/// assert!(Verifier::new().verify(&plan).is_empty());
/// ```
pub struct Verifier<'rt> {
    runtime: Option<&'rt Runtime>,
    assumed: BTreeSet<String>,
    deadline_us: Option<u64>,
    max_tokens: Option<u64>,
    model: ResourceModel,
    extra_passes: Vec<Box<dyn LintPass>>,
}

impl Default for Verifier<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'rt> Verifier<'rt> {
    /// A runtime-independent verifier: structure, termination, def-use,
    /// and (when budgets are set) feasibility — but no registry checks.
    #[must_use]
    pub fn new() -> Self {
        Self {
            runtime: None,
            assumed: BTreeSet::new(),
            deadline_us: None,
            max_tokens: None,
            model: ResourceModel::default(),
            extra_passes: Vec::new(),
        }
    }

    /// Verify against `runtime`'s registries too (views, refiners,
    /// retrievers, agents, LLM availability).
    #[must_use]
    pub fn with_runtime(runtime: &'rt Runtime) -> Self {
        Self {
            runtime: Some(runtime),
            ..Self::new()
        }
    }

    /// Declare a prompt key that exists in the starting state (the IR
    /// analogue of [`crate::validate::Validator::assume_prompt`]).
    #[must_use]
    pub fn assume_prompt(mut self, key: impl Into<String>) -> Self {
        self.assumed.insert(key.into());
        self
    }

    /// Require the plan to fit a virtual deadline (µs); see
    /// [`ResourcePass`] for the cost model.
    #[must_use]
    pub fn deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Require the plan to fit a completion-token budget.
    #[must_use]
    pub fn max_tokens(mut self, max_tokens: u64) -> Self {
        self.max_tokens = Some(max_tokens);
        self
    }

    /// Override the worst-case cost assumptions.
    #[must_use]
    pub fn resource_model(mut self, model: ResourceModel) -> Self {
        self.model = model;
        self
    }

    /// Register an additional lint pass, run after the built-in ones.
    #[must_use]
    pub fn register_pass(mut self, pass: Box<dyn LintPass>) -> Self {
        self.extra_passes.push(pass);
        self
    }

    /// Run every pass over `plan`. An empty result means the plan is
    /// statically sound under this verifier's configuration; any
    /// [`Diagnostic::is_error`] finding means it must not execute.
    ///
    /// Structural defects short-circuit: a plan whose targets are
    /// malformed has no meaningful CFG, so only those diagnostics are
    /// returned. Dataflow passes additionally require termination (a
    /// DAG); when backward jumps exist they are skipped — the E006
    /// errors already reject the plan.
    #[must_use]
    pub fn verify(&self, plan: &LoweredPlan) -> Vec<Diagnostic> {
        let cfg = match Cfg::build(plan) {
            Ok(cfg) => cfg,
            Err(diags) => return diags,
        };
        let cx = PassContext {
            plan,
            cfg: &cfg,
            runtime: self.runtime,
            assumed: &self.assumed,
            deadline_us: self.deadline_us,
            max_tokens: self.max_tokens,
            model: self.model,
        };
        let mut diags = ReachabilityPass.run(&cx);
        if cfg.terminates() {
            diags.extend(DefUsePass.run(&cx));
            diags.extend(ResourcePass.run(&cx));
            diags.extend(AffinityPass.run(&cx));
            for pass in &self.extra_passes {
                diags.extend(pass.run(&cx));
            }
        }
        diags
    }
}

/// Render diagnostics anchored to their plan slots, reusing the
/// `explain_lowered` instruction formatting (`  NNNN  <op>`) so verifier
/// output and plan explanations line up visually:
///
/// ```text
/// error[SPEAR-E004] in plan "bad": P["ghost"] is never created before this GEN
///   0000  GEN["answer"] using P["ghost"]
/// ```
#[must_use]
pub fn render_diagnostics(plan: &LoweredPlan, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}[{}] in plan {:?}: {}\n",
            d.severity, d.code, plan.name, d.message
        ));
        if let Some(slot) = d.slot {
            let rendered = plan
                .ops
                .get(slot)
                .map_or_else(|| d.op.clone(), crate::plan::LoweredOp::describe);
            out.push_str(&format!("  {slot:04}  {rendered}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Cond;
    use crate::history::RefinementMode;
    use crate::pipeline::Pipeline;
    use crate::plan::{lower, LoweredOp};

    fn lowered(p: &Pipeline) -> LoweredPlan {
        lower(p).expect("test pipelines lower")
    }

    #[test]
    fn sound_plans_verify_clean_without_a_runtime() {
        let p = Pipeline::builder("ok")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Always,
                |b| b.expand("p", "then"),
                |b| b.expand("p", "else"),
            )
            .gen("a", "p")
            .build();
        assert_eq!(Verifier::new().verify(&lowered(&p)), vec![]);
    }

    #[test]
    fn undefined_keys_surface_as_e004_in_program_order() {
        let p = Pipeline::builder("bad")
            .gen("answer", "ghost_prompt")
            .expand("other_ghost", "text")
            .build();
        let diags = Verifier::new().verify(&lowered(&p));
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "SPEAR-E004"));
        assert!(diags[0].message.contains("never created"));
        assert!(diags[1].message.contains("before any CREATE"));
        assert_eq!(diags[0].slot, Some(0));
        assert_eq!(diags[1].slot, Some(1));
    }

    #[test]
    fn branch_definitions_are_optimistic_on_the_ir_too() {
        let p = Pipeline::builder("branchy")
            .check_else(
                Cond::Always,
                |b| b.create_text("p", "then text", RefinementMode::Manual),
                |b| b.create_text("p", "else text", RefinementMode::Manual),
            )
            .gen("answer", "p")
            .build();
        assert_eq!(Verifier::new().verify(&lowered(&p)), vec![]);
    }

    #[test]
    fn assumed_prompts_seed_the_entry_fact() {
        let p = Pipeline::builder("pre")
            .gen("answer", "preexisting")
            .build();
        assert_eq!(Verifier::new().verify(&lowered(&p)).len(), 1);
        let diags = Verifier::new()
            .assume_prompt("preexisting")
            .verify(&lowered(&p));
        assert_eq!(diags, vec![]);
    }

    #[test]
    fn infeasible_deadlines_are_errors_and_risky_ones_warnings() {
        let must = Pipeline::builder("must")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .gen("b", "p")
            .build();
        // Two unconditional GENs at >= 100 µs each can't fit 150 µs.
        let diags = Verifier::new().deadline_us(150).verify(&lowered(&must));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E005");

        // A conditional second GEN *may* fit: warning, not error.
        let maybe = Pipeline::builder("maybe")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .check(Cond::low_confidence(0.5), |b| b.gen("b", "p"))
            .build();
        let diags = Verifier::new().deadline_us(150).verify(&lowered(&maybe));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-W003");

        // A roomy deadline is clean.
        assert_eq!(
            Verifier::new().deadline_us(10_000).verify(&lowered(&must)),
            vec![]
        );
    }

    #[test]
    fn token_budgets_walk_the_same_dag() {
        let p = Pipeline::builder("tok")
            .create_text("p", "base", RefinementMode::Manual)
            .gen("a", "p")
            .gen("b", "p")
            .build();
        let diags = Verifier::new().max_tokens(1).verify(&lowered(&p));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E005");
        assert!(diags[0].message.contains("token"));
    }

    #[test]
    fn structural_defects_short_circuit() {
        let plan = LoweredPlan {
            name: "broken".into(),
            source_size: 1,
            ops: vec![LoweredOp::Jump { target: usize::MAX }],
        };
        let diags = Verifier::new().deadline_us(1).verify(&plan);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E003");
    }

    #[test]
    fn extra_passes_plug_in() {
        struct AlwaysWarn;
        impl LintPass for AlwaysWarn {
            fn name(&self) -> &'static str {
                "always-warn"
            }
            fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
                vec![Diagnostic::plan_level(
                    &lints::BUDGET_AT_RISK,
                    format!("custom pass saw {} slot(s)", cx.plan.ops.len()),
                )]
            }
        }
        let p = Pipeline::builder("x")
            .create_text("p", "t", RefinementMode::Manual)
            .build();
        let diags = Verifier::new()
            .register_pass(Box::new(AlwaysWarn))
            .verify(&lowered(&p));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("1 slot(s)"));
    }

    #[test]
    fn rendering_anchors_diagnostics_to_slots() {
        let p = Pipeline::builder("bad").gen("answer", "ghost").build();
        let plan = lowered(&p);
        let diags = Verifier::new().verify(&plan);
        let rendered = render_diagnostics(&plan, &diags);
        assert!(rendered.contains("error[SPEAR-E004] in plan \"bad\""));
        assert!(rendered.contains("\n  0000  GEN"));
    }
}
