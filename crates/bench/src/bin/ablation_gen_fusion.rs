//! **Ablation E**: shared-context GEN fusion (paper §5, "Operator Fusion"
//! first paragraph) — adjacent GENs reading the same stored prompt are
//! fused into one sectioned call, with a `split_sections` REF restoring
//! the original context keys.
//!
//! Usage: `cargo run -p spear-bench --bin ablation_gen_fusion [-- --n 100]`

use std::sync::Arc;

use spear_bench::cli::arg;
use spear_bench::report::{f, Table};
use spear_core::prelude::*;
use spear_llm::{ModelProfile, SimLlm};
use spear_optimizer::cost::CostModel;
use spear_optimizer::gen_fusion;

/// A report-style pipeline: three sections generated from one shared view
/// prompt (the paper's "generating multiple sections from the same view").
fn sectioned_pipeline(case_id: usize) -> Pipeline {
    Pipeline::builder("case_report")
        .create_text(
            "report_view",
            format!(
                "You are preparing the report for case number {case_id}. Write \
                 the requested outputs in plain prose, cover every relevant \
                 detail the record supports, attribute nothing beyond the \
                 record, and use at most 40 words per output."
            )
            .as_str(),
            RefinementMode::Manual,
        )
        .gen("findings", "report_view")
        .gen("impression", "report_view")
        .gen("followup", "report_view")
        .build()
}

fn main() {
    let n = arg("--n", 100) as usize;
    eprintln!("Ablation E: shared-context GEN fusion over {n} three-section reports");

    let run = |fuse: bool| -> (u64, f64) {
        let rt = Runtime::builder()
            .llm(Arc::new(SimLlm::new(ModelProfile::qwen25_7b_instruct())))
            .build();
        let mut gens = 0u64;
        let mut latency = 0.0f64;
        for case in 0..n {
            let pipeline = sectioned_pipeline(case);
            let pipeline = if fuse {
                gen_fusion::fuse_pipeline(&pipeline).0
            } else {
                pipeline
            };
            let mut state = ExecState::new();
            let report = rt.execute(&pipeline, &mut state).expect("pipeline runs");
            assert!(state.context.contains("findings"));
            assert!(state.context.contains("impression"));
            assert!(state.context.contains("followup"));
            gens += report.gens;
            latency += report.latency.as_secs_f64();
        }
        (gens, latency)
    };

    let (seq_gens, seq_time) = run(false);
    let (fused_gens, fused_time) = run(true);

    // What the planner predicted, for comparison.
    let predicted =
        gen_fusion::estimate_saving(&CostModel::default(), 3, 45.0, true).as_secs_f64() * n as f64;

    let mut table = Table::new(&["Plan", "GEN calls", "Total time (s)", "Per case (s)"]);
    table.row(vec![
        "Sequential (3 GENs/case)".into(),
        seq_gens.to_string(),
        f(seq_time, 1),
        f(seq_time / n as f64, 3),
    ]);
    table.row(vec![
        "GEN-fused (1 call/case)".into(),
        fused_gens.to_string(),
        f(fused_time, 1),
        f(fused_time / n as f64, 3),
    ]);
    println!("{}", table.render());
    println!(
        "measured saving: {:.1}s ({:+.1}%); planner's a-priori overhead+prefill \
         estimate: {:.1}s (the rest of the saving is decode consolidation, \
         which the planner deliberately leaves to measurement)",
        seq_time - fused_time,
        100.0 * (seq_time - fused_time) / seq_time,
        predicted
    );
}
