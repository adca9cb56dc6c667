//! Regenerate **Figure 1** of the SPEAR paper: performance gain and
//! accuracy drop under fusion, for Map→Filter and Filter→Map, across
//! Qwen2.5-7B-Instruct, Mistral-7B-Instruct, and GPT-4o-mini (simulated).
//!
//! Usage: `cargo run -p spear-bench --bin figure1 [-- --n 1000 --seed 140]`

use spear_bench::cli::arg;
use spear_bench::fusion_exp::figure1;
use spear_bench::report::{f, pct, Table};

fn main() {
    let n = arg("--n", 1000) as usize;
    let seed = arg("--seed", 140);
    eprintln!(
        "Figure 1: fusion performance gain vs accuracy drop across models — \
         {n} tweets/cell, selectivity 50%, seed {seed}"
    );
    let cells = figure1(n, seed).expect("figure1 run failed");

    let mut table = Table::new(&[
        "Model",
        "Pipeline",
        "Seq (s)",
        "Fused (s)",
        "Perf Gain",
        "Speedup (x)",
        "Seq Acc",
        "Fused Acc",
        "Acc Drop",
    ]);
    for c in &cells {
        table.row(vec![
            c.model.clone(),
            c.order.clone(),
            f(c.seq_time_s, 1),
            f(c.fused_time_s, 1),
            pct(c.gain_pct, 2),
            f(c.seq_time_s / c.fused_time_s, 2),
            f(c.seq_accuracy, 3),
            f(c.fused_accuracy, 3),
            pct(c.accuracy_drop_pct, 2),
        ]);
    }
    println!("{}", table.render());
    for c in &cells {
        println!("{}", serde_json::to_string(c).expect("serializable cell"));
    }
}
