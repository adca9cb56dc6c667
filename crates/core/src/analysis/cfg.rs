//! Control-flow graph over a lowered slot program.
//!
//! Every slot is a node; the virtual exit node is `plan.ops.len()`.
//! Edges follow the compiled VM's program counter ([`crate::vm`]):
//!
//! - `Leaf` falls through to `pc + 1`;
//! - `Check { on_false }` has two successors, `pc + 1` (condition holds)
//!   and `on_false`;
//! - `Jump { target }` has the single successor `target`.
//!
//! Construction is fallible: targets past the exit node — including the
//! lowering placeholder `usize::MAX`, which [`crate::plan::lower`] must
//! never let escape — are structural errors, reported with stable lint
//! codes instead of building a graph that would send the program counter
//! out of bounds.

use crate::plan::{LoweredOp, LoweredPlan};

use super::lints::{
    Diagnostic, BACKWARD_JUMP, BAD_JUMP_TARGET, CHECK_TARGET_ESCAPES, PLACEHOLDER_LEAK,
};

/// The control-flow graph of a lowered plan.
#[derive(Debug)]
pub struct Cfg {
    /// Successors per slot (targets may equal `len`, the exit node).
    succs: Vec<Vec<usize>>,
    /// Whether each slot is reachable from slot 0.
    reachable: Vec<bool>,
    /// Edges `(from, to)` with `to <= from` — loops are impossible without
    /// one, so an empty list proves termination.
    back_edges: Vec<(usize, usize)>,
}

impl Cfg {
    /// Build the CFG, or report the structural diagnostics (bad targets)
    /// that make the slot program un-interpretable.
    ///
    /// # Errors
    ///
    /// Returns every malformed-target diagnostic found, in slot order.
    pub fn build(plan: &LoweredPlan) -> Result<Cfg, Vec<Diagnostic>> {
        let diags = structural_diagnostics(plan);
        if !diags.is_empty() {
            return Err(diags);
        }
        let len = plan.ops.len();
        let succs: Vec<Vec<usize>> = plan
            .ops
            .iter()
            .enumerate()
            .map(|(pc, op)| match op {
                LoweredOp::Leaf { .. } => vec![pc + 1],
                LoweredOp::Check { on_false, .. } => {
                    if *on_false == pc + 1 {
                        vec![pc + 1]
                    } else {
                        vec![pc + 1, *on_false]
                    }
                }
                LoweredOp::Jump { target } => vec![*target],
            })
            .collect();

        let mut reachable = vec![false; len];
        let mut stack = if len > 0 { vec![0usize] } else { Vec::new() };
        while let Some(pc) = stack.pop() {
            if pc >= len || reachable[pc] {
                continue;
            }
            reachable[pc] = true;
            stack.extend(succs[pc].iter().copied());
        }

        let back_edges = succs
            .iter()
            .enumerate()
            .filter(|(pc, _)| reachable[*pc])
            .flat_map(|(pc, ss)| ss.iter().filter(move |&&t| t <= pc).map(move |&t| (pc, t)))
            .collect();

        Ok(Cfg {
            succs,
            reachable,
            back_edges,
        })
    }

    /// Successor slots of `slot` (targets may equal the exit index).
    #[must_use]
    pub fn succs(&self, slot: usize) -> &[usize] {
        &self.succs[slot]
    }

    /// Number of slots (the exit node is `len()`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the plan has no slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Whether `slot` is reachable from entry.
    #[must_use]
    pub fn is_reachable(&self, slot: usize) -> bool {
        self.reachable[slot]
    }

    /// Reachable edges `(from, to)` with `to <= from`. Empty for every
    /// plan produced by [`crate::plan::lower`], whose targets all move
    /// strictly forward — which is exactly the termination argument.
    #[must_use]
    pub fn back_edges(&self) -> &[(usize, usize)] {
        &self.back_edges
    }

    /// Whether forward progress is guaranteed (no reachable back edges).
    #[must_use]
    pub fn terminates(&self) -> bool {
        self.back_edges.is_empty()
    }
}

/// Validate every jump target of `plan` without building a graph: the
/// checks `lower()` itself runs before releasing a plan, and the gate
/// `Runtime::execute_lowered` applies to plans of unknown origin.
///
/// A target equal to `plan.ops.len()` is the ordinary exit and is valid.
#[must_use]
pub fn structural_diagnostics(plan: &LoweredPlan) -> Vec<Diagnostic> {
    let len = plan.ops.len();
    let mut diags = Vec::new();
    for (pc, op) in plan.ops.iter().enumerate() {
        match op {
            LoweredOp::Leaf { .. } => {}
            LoweredOp::Check { on_false, .. } => {
                if *on_false == usize::MAX {
                    diags.push(Diagnostic::at(
                        &PLACEHOLDER_LEAK,
                        pc,
                        op.describe(),
                        format!("CHECK at slot {pc:04} kept the usize::MAX lowering placeholder"),
                    ));
                } else if *on_false > len {
                    diags.push(Diagnostic::at(
                        &CHECK_TARGET_ESCAPES,
                        pc,
                        op.describe(),
                        format!("CHECK else-target {on_false} escapes the plan ({len} slots)"),
                    ));
                }
            }
            LoweredOp::Jump { target } => {
                if *target == usize::MAX {
                    diags.push(Diagnostic::at(
                        &PLACEHOLDER_LEAK,
                        pc,
                        op.describe(),
                        format!("JUMP at slot {pc:04} kept the usize::MAX lowering placeholder"),
                    ));
                } else if *target > len {
                    diags.push(Diagnostic::at(
                        &BAD_JUMP_TARGET,
                        pc,
                        op.describe(),
                        format!("jump target {target} is out of bounds ({len} slots)"),
                    ));
                }
            }
        }
    }
    diags
}

/// Diagnostics for reachable back edges: one [`BACKWARD_JUMP`] error per
/// edge, anchored at the jumping slot.
#[must_use]
pub fn termination_diagnostics(plan: &LoweredPlan, cfg: &Cfg) -> Vec<Diagnostic> {
    cfg.back_edges()
        .iter()
        .map(|(from, to)| {
            Diagnostic::at(
                &BACKWARD_JUMP,
                *from,
                plan.ops[*from].describe(),
                format!(
                    "slot {from:04} jumps backwards to {to:04}; lowered plans must move \
                     strictly forward to guarantee termination"
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Cond;
    use crate::history::RefinementMode;
    use crate::pipeline::Pipeline;
    use crate::plan::lower;

    fn jump(target: usize) -> LoweredOp {
        LoweredOp::Jump { target }
    }

    fn plan_of(ops: Vec<LoweredOp>) -> LoweredPlan {
        LoweredPlan {
            name: "hand_built".into(),
            source_size: ops.len() as u64,
            ops,
        }
    }

    fn leaf() -> LoweredOp {
        let p = Pipeline::builder("x")
            .create_text("p", "t", RefinementMode::Manual)
            .build();
        lower(&p).expect("trivial pipeline lowers").ops[0].clone()
    }

    #[test]
    fn lowered_pipelines_build_clean_cfgs() {
        let p = Pipeline::builder("c")
            .create_text("p", "base", RefinementMode::Manual)
            .check_else(
                Cond::Always,
                |b| b.expand("p", "then"),
                |b| b.expand("p", "else"),
            )
            .gen("a", "p")
            .build();
        let lowered = lower(&p).expect("lowers");
        let cfg = Cfg::build(&lowered).expect("valid plan");
        assert_eq!(cfg.len(), lowered.ops.len());
        assert!((0..cfg.len()).all(|s| cfg.is_reachable(s)));
        assert!(cfg.terminates());
    }

    #[test]
    fn out_of_bounds_targets_are_structural_errors() {
        let bad = plan_of(vec![leaf(), jump(99)]);
        let diags = structural_diagnostics(&bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E001");
        assert!(Cfg::build(&bad).is_err());
    }

    #[test]
    fn placeholder_targets_get_their_own_code() {
        let bad = plan_of(vec![jump(usize::MAX)]);
        let diags = structural_diagnostics(&bad);
        assert_eq!(diags[0].code, "SPEAR-E003");
    }

    #[test]
    fn exit_targets_are_valid() {
        let ok = plan_of(vec![leaf(), jump(2)]);
        assert!(structural_diagnostics(&ok).is_empty());
        let cfg = Cfg::build(&ok).expect("valid");
        assert!(cfg.terminates());
    }

    #[test]
    fn backward_jumps_are_flagged_with_the_jumping_slot() {
        let looping = plan_of(vec![leaf(), jump(0)]);
        let cfg = Cfg::build(&looping).expect("structurally fine");
        assert!(!cfg.terminates());
        let diags = termination_diagnostics(&looping, &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SPEAR-E006");
        assert_eq!(diags[0].slot, Some(1));
    }

    #[test]
    fn unreachable_slots_are_detected() {
        let p = plan_of(vec![jump(2), leaf(), leaf()]);
        let cfg = Cfg::build(&p).expect("valid");
        assert!(cfg.is_reachable(0));
        assert!(!cfg.is_reachable(1));
        assert!(cfg.is_reachable(2));
    }
}
