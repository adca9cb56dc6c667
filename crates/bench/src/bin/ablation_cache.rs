//! **Ablation A**: prefix cache on/off for the Table 3 strategies —
//! isolates how much of each refinement mode's speedup is attributable to
//! structured-prompt prefix caching.
//!
//! Usage: `cargo run -p spear-bench --bin ablation_cache [-- --n 500]`

use spear_bench::cli::arg;
use spear_bench::report::{f, Table};
use spear_bench::table3::{run, Table3Config};

fn main() {
    let n = arg("--n", 500) as usize;
    let seed = arg("--seed", 140);
    eprintln!(
        "Ablation A: Table 3 strategies with the prefix cache enabled vs disabled ({n} tweets)"
    );

    let with_cache = run(&Table3Config {
        n_tweets: n,
        seed,
        cache_enabled: true,
        ..Table3Config::default()
    })
    .expect("cached run failed");
    let without_cache = run(&Table3Config {
        n_tweets: n,
        seed,
        cache_enabled: false,
        ..Table3Config::default()
    })
    .expect("uncached run failed");

    let mut table = Table::new(&[
        "Strategy",
        "Time cache=on (s)",
        "Speedup on",
        "Time cache=off (s)",
        "Speedup off",
        "Cache-attributable",
    ]);
    for (on, off) in with_cache.iter().zip(&without_cache) {
        table.row(vec![
            on.strategy.clone(),
            f(on.time_s, 2),
            f(on.speedup, 2),
            f(off.time_s, 2),
            f(off.speedup, 2),
            format!("{:.0}%", 100.0 * (off.time_s - on.time_s) / off.time_s),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: with the cache off, the refinement modes keep their quality \
         gains but lose (almost) their entire latency advantage — the paper's \
         claim that structure enables the reuse, and reuse buys the speed."
    );
}
