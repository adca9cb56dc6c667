//! **Ablation C**: view-guided refinement (paper §5) — cost-based view
//! selection plus lightweight refinement vs from-scratch prompt authoring.
//!
//! Usage: `cargo run -p spear-bench --bin ablation_views [-- --n 200]`

use spear_bench::ablations::ablation_views;
use spear_bench::cli::arg;
use spear_bench::report::{f, Table};

fn main() {
    let n = arg("--n", 200) as usize;
    let seed = arg("--seed", 7);
    eprintln!("Ablation C: view-guided refinement vs from-scratch prompts ({n} items)");
    let rows = ablation_views(seed, n).expect("views ablation failed");

    let mut table = Table::new(&[
        "Task",
        "Chosen view",
        "Scratch (s/item)",
        "View-guided (s/item)",
        "Speedup",
    ]);
    for r in &rows {
        table.row(vec![
            r.task.clone(),
            r.chosen_view.clone(),
            f(r.scratch_time_s, 3),
            f(r.view_time_s, 3),
            f(r.speedup, 2),
        ]);
    }
    println!("{}", table.render());
    for r in &rows {
        println!("{}", serde_json::to_string(r).expect("serializable row"));
    }
}
